// `selftest`: the oracle on a small hand-written document whose answers
// were worked out by hand, and the checker catching deliberately wrong
// responses.

#include <iostream>
#include <string>
#include <vector>

#include "checker.h"
#include "oracle.h"
#include "tool.h"
#include "twig/query_parser.h"

namespace perfbench {

namespace {

// Preorder ids, worked out by hand (whitespace-only text is dropped):
//  0 lib | 1 book 2 @id 3 author 4 "Ann Lee" 5 author 6 "Bo Chen"
//  7 title 8 "XML Search" 9 year 10 "2012" | 11 book 12 @id
//  13 title 14 "Twig Joins & More" 15 author 16 "Ann Smith" 17 year
//  18 "2010" | 19 article 20 author 21 "Bo Chen" 22 title 23 "Ranking"
//  24 sec 25 sec 26 title 27 "Deep"
constexpr const char* kDocument = R"(<?xml version="1.0"?>
<!-- hand-written -->
<lib>
  <book id="b1"><author>Ann Lee</author><author>Bo Chen</author><title>XML Search</title><year>2012</year></book>
  <book id='b2'><title>Twig Joins &amp; More</title><author> Ann Smith </author><year>2010</year></book>
  <article><author>Bo Chen</author><title>Ranking</title><sec><sec><title>Deep</title></sec></sec></article>
</lib>
)";

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::cerr << "selftest: FAILED " << what << "\n";
  }
}

lotusx::twig::TwigQuery Query(const std::string& text) {
  auto parsed = lotusx::twig::ParseQuery(text);
  if (!parsed.ok()) {
    std::cerr << "selftest: cannot parse " << text << "\n";
    std::exit(1);
  }
  return *std::move(parsed);
}

// A right response: the checker must find nothing wrong.
void ExpectPass(const std::string& problem, const std::string& what) {
  Expect(problem.empty(), what + ": " + problem);
}

void ExpectCount(const OracleDoc& doc, const std::string& query, uint64_t count,
                 const std::vector<int32_t>& outputs) {
  lotusx::twig::TwigQuery parsed = Query(query);
  OracleResult result = Evaluate(doc, parsed, 1000);
  Expect(result.count == count, query + " count " + std::to_string(result.count) +
                                    " != " + std::to_string(count));
  Expect(result.bound[static_cast<size_t>(parsed.output())] == outputs,
         query + " output nodes");
}

}  // namespace

int SelfTest() {
  OracleDoc doc;
  std::string error;
  Expect(doc.Parse(kDocument, &error), "parse: " + error);
  Expect(doc.size() == 28, "28 nodes, got " + std::to_string(doc.size()));
  Expect(doc.value(3) == "Ann Lee" && doc.value(15) == "Ann Smith" &&
             doc.value(13) == "Twig Joins & More" && doc.value(12) == "b2" &&
             doc.value(1).empty(),
         "values");
  Expect(doc.node(1).subtree_end == 10 && doc.node(19).subtree_end == 27 &&
             doc.node(24).subtree_end == 27,
         "subtree extents");
  Expect(doc.recursive(), "sec inside sec makes the document recursive");

  ExpectCount(doc, "//book/author", 3, {3, 5, 15});
  ExpectCount(doc, "//book[author[~\"ann\"]]/title", 2, {7, 13});
  ExpectCount(doc, "//book[ordered][author][title]", 2, {1});
  ExpectCount(doc, "//lib//title", 4, {7, 13, 22, 26});
  ExpectCount(doc, "//sec//title", 2, {26});
  ExpectCount(doc, "//book/@id[=\"b2\"]", 1, {12});
  ExpectCount(doc, "//*/year[=\"2012\"]", 1, {9});
  ExpectCount(doc, "//title[=\"Twig Joins & More\"]", 1, {13});
  ExpectCount(doc, "//book[year[=\"1999\"]]", 0, {});
  ExpectCount(doc, "/lib/article//title", 2, {22, 26});
  ExpectCount(doc, "/book", 0, {});

  Expect(PathLeafNodes(doc, Query("//sec//title")) == std::vector<int32_t>{26},
         "path leaf of //sec//title");
  std::vector<int32_t> books = PathLeafNodes(doc, Query("//book"));
  std::vector<uint64_t> child = ExtensionCounts(doc, &books, lotusx::twig::Axis::kChild);
  Expect(child[static_cast<size_t>(doc.FindTag("author"))] == 3 &&
             child[static_cast<size_t>(doc.FindTag("@id"))] == 2 &&
             child[static_cast<size_t>(doc.FindTag("sec"))] == 0,
         "child extensions of //book");
  std::vector<int32_t> articles = PathLeafNodes(doc, Query("//article"));
  std::vector<uint64_t> below =
      ExtensionCounts(doc, &articles, lotusx::twig::Axis::kDescendant);
  Expect(below[static_cast<size_t>(doc.FindTag("title"))] == 2 &&
             below[static_cast<size_t>(doc.FindTag("sec"))] == 2 &&
             below[static_cast<size_t>(doc.FindTag("book"))] == 0,
         "descendant extensions of //article");

  // The checker accepts right responses and catches wrong ones.
  OracleCache cache(doc);
  Checker checker(&cache);
  lotusx::twig::TwigQuery authors = Query("//book/author");
  const std::string head = "query: " + authors.ToString() + "\nalgorithm: twigstack, matches: ";
  ExpectPass(checker.CheckRun(authors, head + "3\n1. score=2 node#3\n2. score=1.5 node#15\n"
                                          "3. score=1.5 node#5"),
         "a right RUN passes");
  Expect(!checker.CheckRun(authors, head + "4\n1. score=2 node#3\n2. score=1.5 node#15\n"
                                           "3. score=1.5 node#5").empty(),
         "a wrong match count is caught");
  Expect(!checker.CheckRun(authors, head + "3\n1. score=2 node#3\n2. score=1.5 node#7\n"
                                           "3. score=1 node#5").empty(),
         "a node that binds no answer is caught");
  Expect(!checker.CheckRun(authors, head + "3\n1. score=1 node#3\n2. score=1.5 node#15\n"
                                           "3. score=1 node#5").empty(),
         "rising scores are caught");
  Expect(!checker.CheckRun(authors, head + "3\n1. score=2 node#3").empty(),
         "a short answer list is caught");
  lotusx::twig::TwigQuery empty = Query("//book[year[=\"1999\"]]");
  ExpectPass(checker.CheckRun(empty, "query: " + empty.ToString() + "\nalgorithm: twigstack, "
                                 "matches: 0\n(no results)"),
         "an empty RUN passes");
  ExpectPass(checker.CheckRun(empty, "query: //book\nrewritten (penalty 1): [relax]\n"
                                 "algorithm: twigstack, matches: 2\n1. score=1 node#1\n"
                                 "2. score=1 node#11"),
         "a rewrite of an empty query passes");
  Expect(!checker.CheckRun(authors, "query: //book\nrewritten (penalty 1): [relax]\n"
                                    "algorithm: twigstack, matches: 2\n1. score=1 node#1\n"
                                    "2. score=1 node#11").empty(),
         "a rewrite of a non-empty query is caught");
  ExpectPass(checker.CheckExplain(authors, "query: " + authors.ToString() +
                                               "\nestimated matches: 3; actual matches: 3"),
         "a right EXPLAIN passes");
  Expect(!checker.CheckExplain(authors, "query: " + authors.ToString() + "\nestimated matches: 3; "
                                        "actual matches: 2").empty(),
         "a wrong EXPLAIN count is caught");

  lotusx::twig::TwigQuery book = Query("//book");
  const auto kChild = lotusx::twig::Axis::kChild;
  ExpectPass(checker.CheckType(&book, 0, kChild, "a", "1. author (3)"),
         "a right TYPE passes");
  Expect(!checker.CheckType(&book, 0, kChild, "a", "1. author (2)").empty(),
         "a wrong TYPE count is caught");
  Expect(!checker.CheckType(&book, 0, kChild, "a", "(no candidates)").empty(),
         "a missing TYPE candidate is caught");
  Expect(!checker.CheckType(&book, 0, kChild, "", "1. author (3)\n2. sec (1)").empty(),
         "a TYPE candidate with an empty extension is caught");
  ExpectPass(checker.CheckType(&book, 0, kChild, "",
                           "1. author (3)\n2. @id (2)\n3. title (2)\n4. year (2)"),
         "a full TYPE list passes");
  ExpectPass(checker.CheckType(nullptr, -1, lotusx::twig::Axis::kDescendant, "s",
                           "1. sec (2)"),
         "root suggestions pass");
  ExpectPass(checker.CheckTypeval(authors, 1, "A", "1. ann (2)"), "a right TYPEVAL passes");
  Expect(!checker.CheckTypeval(authors, 1, "a", "1. apple (1)").empty(),
         "a TYPEVAL term absent under the tag is caught");
  Expect(!checker.CheckTypeval(authors, 1, "b", "1. ann (2)").empty(),
         "a TYPEVAL term without the prefix is caught");

  if (failures == 0) std::cout << "selftest passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
