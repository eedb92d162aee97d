// Tests for the Aho–Corasick multi-pattern matcher.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dpi/aho_corasick.hpp"

namespace nfp {
namespace {

std::span<const u8> bytes(const std::string& s) {
  return {reinterpret_cast<const u8*>(s.data()), s.size()};
}

TEST(AhoCorasickTest, FindsSinglePattern) {
  AhoCorasick ac({"needle"});
  EXPECT_TRUE(ac.contains(bytes("a haystack with a needle inside")));
  EXPECT_FALSE(ac.contains(bytes("a haystack with nothing")));
  EXPECT_FALSE(ac.contains(bytes("")));
}

TEST(AhoCorasickTest, MatchAtBoundaries) {
  AhoCorasick ac({"abc"});
  EXPECT_TRUE(ac.contains(bytes("abc...")));
  EXPECT_TRUE(ac.contains(bytes("...abc")));
  EXPECT_TRUE(ac.contains(bytes("abc")));
  EXPECT_FALSE(ac.contains(bytes("ab")));
}

TEST(AhoCorasickTest, OverlappingPatterns) {
  AhoCorasick ac({"he", "she", "his", "hers"});
  const auto hits = ac.find_all(bytes("ushers"));
  // "ushers" contains she (1), he (0), hers (3).
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(AhoCorasickTest, FindAllDeduplicates) {
  AhoCorasick ac({"aa"});
  const auto hits = ac.find_all(bytes("aaaa"));  // 3 occurrences, 1 pattern
  EXPECT_EQ(hits, (std::vector<std::size_t>{0}));
}

TEST(AhoCorasickTest, PatternsThatArePrefixesOfEachOther) {
  AhoCorasick ac({"abcd", "ab", "abcde"});
  EXPECT_EQ(ac.find_all(bytes("abcd")), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ac.find_all(bytes("abcde")),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(ac.find_all(bytes("ab")), (std::vector<std::size_t>{1}));
}

TEST(AhoCorasickTest, BinaryPatterns) {
  const std::string pattern{'\x00', '\xff', '\x7f'};
  AhoCorasick ac({pattern});
  const std::string hay = std::string("xx") + pattern + "yy";
  EXPECT_TRUE(ac.contains(bytes(hay)));
  EXPECT_EQ(ac.pattern_count(), 1u);
}

TEST(AhoCorasickTest, EmptyPatternsIgnored) {
  AhoCorasick ac({"", "x", ""});
  EXPECT_EQ(ac.pattern_count(), 1u);
  EXPECT_TRUE(ac.contains(bytes("box")));
  EXPECT_FALSE(ac.contains(bytes("bo")));
}

// The oracle: ids of the non-empty patterns that occur in `text`.
std::vector<std::size_t> naive_ids(const std::vector<std::string>& patterns,
                                   const std::string& text) {
  std::vector<std::size_t> ids;
  for (std::size_t id = 0; id < patterns.size(); ++id) {
    const std::string& p = patterns[id];
    if (!p.empty() && text.find(p) != std::string::npos) ids.push_back(id);
  }
  return ids;
}

std::string all_bytes() {
  std::string s;
  for (int b = 0; b < 256; ++b) s.push_back(static_cast<char>(b));
  return s;
}

std::string random_string(Rng& rng, const std::string& alphabet,
                          std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.bounded(alphabet.size())]);
  }
  return s;
}

std::vector<std::string> random_patterns(Rng& rng, const std::string& alphabet,
                                         std::size_t count, std::size_t min_len,
                                         std::size_t max_len) {
  std::vector<std::string> patterns;
  for (std::size_t i = 0; i < count; ++i) {
    patterns.push_back(
        random_string(rng, alphabet, rng.range(min_len, max_len)));
  }
  return patterns;
}

// Random texts over `alphabet` with whole patterns and pattern prefixes
// spliced in, so that matches and near misses both occur.
std::vector<std::string> random_texts(Rng& rng, const std::string& alphabet,
                                      const std::vector<std::string>& patterns,
                                      std::size_t count, std::size_t max_len) {
  std::vector<std::string> texts;
  for (std::size_t t = 0; t < count; ++t) {
    std::string text;
    const std::size_t len = rng.range(0, max_len);
    while (text.size() < len) {
      const std::string& p = patterns[rng.bounded(patterns.size())];
      if (!p.empty() && rng.bounded(6) == 0) {
        text += p.substr(0, rng.range(1, p.size()));
      } else {
        text.push_back(alphabet[rng.bounded(alphabet.size())]);
      }
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

struct DifferentialCase {
  std::string name;
  std::vector<std::string> patterns;
  std::vector<std::string> texts;
};

std::vector<DifferentialCase> differential_cases() {
  Rng rng(99);
  std::vector<DifferentialCase> cases;
  const auto add_random = [&](std::string name, std::vector<std::string> pats,
                              const std::string& alphabet, std::size_t count,
                              std::size_t max_len) {
    auto texts = random_texts(rng, alphabet, pats, count, max_len);
    cases.push_back({std::move(name), std::move(pats), std::move(texts)});
  };

  const std::string dense = "abcd";
  add_random("dense alphabet", random_patterns(rng, dense, 50, 2, 6), dense,
             300, 80);

  // Binary alphabets: every byte value, and a few bytes on either side of
  // the sign bit where they are dense enough to match often.
  const std::string full = all_bytes();
  add_random("binary, all 256 byte values",
             random_patterns(rng, full, 60, 1, 8), full, 300, 120);
  const std::string edges{'\x00', '\x01', '\x7f', '\x80', '\xfe', '\xff'};
  add_random("binary, sign-bit bytes", random_patterns(rng, edges, 40, 1, 6),
             edges, 300, 80);

  // Every byte value occurs in a pattern: no shared class for other bytes,
  // so there are 256 classes and ids 0..255.
  std::vector<std::string> every;
  for (int b = 0; b < 256; ++b) {
    every.push_back({static_cast<char>(b),
                     static_cast<char>((b * 7 + 3) & 0xff),
                     static_cast<char>(b ^ 0x55)});
  }
  add_random("every byte value in a pattern", every, full, 300, 120);

  add_random("single-byte patterns",
             {"q", std::string(1, '\x00'), "\xff", "abc", "ba", "z"},
             std::string("abcqz.\x00\xff", 8), 300, 20);

  add_random("prefixes and suffixes of each other",
             {"ab", "abab", "ababab", "bab", "b", "aba", "babab", "abx"},
             "abx", 300, 40);

  // Long runs the root skips: bytes that start no pattern, including ones
  // that occur later inside a pattern, then a match or near miss.
  const std::vector<std::string> skip_pats{"QRS", "XYZW", "QWX"};
  const std::string skipped = "RSYZW.\x00\xff";
  std::vector<std::string> skip_texts;
  for (const char* tail : {"QRS", "XYZW", "QR", "XYZ", "QWXYZW"}) {
    const std::string run = random_string(rng, skipped, 4000);
    skip_texts.push_back(run + tail);
    skip_texts.push_back(run + tail + run);
    skip_texts.push_back(run + "Q" + run + tail);
  }
  cases.push_back({"match right after a long skipped run", skip_pats,
                   skip_texts});

  cases.push_back({"match ends on the last byte",
                   {"needle", "le", "eedl"},
                   {"needle", "a needle", "haystack needle", "needl",
                    "xneedle", "needle needle", "neele"}});

  cases.push_back({"empty text", {"a", "needle", "\xff"}, {""}});
  cases.push_back({"no patterns", {"", ""}, {"", "abc", full}});
  return cases;
}

TEST(AhoCorasickTest, AgreesWithNaiveScanOnRandomInput) {
  for (const DifferentialCase& c : differential_cases()) {
    SCOPED_TRACE(c.name);
    const AhoCorasick ac(c.patterns);
    for (const std::string& text : c.texts) {
      const std::vector<std::size_t> expected = naive_ids(c.patterns, text);
      EXPECT_EQ(ac.find_all(bytes(text)), expected)
          << "text=" << ::testing::PrintToString(text);
      EXPECT_EQ(ac.contains(bytes(text)), !expected.empty())
          << "text=" << ::testing::PrintToString(text);
    }
  }
}

}  // namespace
}  // namespace nfp
