// Unit tests for the ed-script model: construction, application, wire
// codec, and the paper's CRC safety checks.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>

#include "diff/diff.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace shadow::diff {
namespace {

EditScript script_between(const std::string& old_text,
                          const std::string& new_text) {
  return compute_ed_script(old_text, new_text);
}

TEST(EdScriptTest, IdenticalFilesEmptyScript) {
  const std::string text = "a\nb\nc\n";
  const EditScript script = script_between(text, text);
  EXPECT_TRUE(script.commands.empty());
  EXPECT_EQ(apply_ed_script(text, script).value(), text);
}

TEST(EdScriptTest, PureAppend) {
  const EditScript script = script_between("a\n", "a\nb\nc\n");
  ASSERT_EQ(script.commands.size(), 1u);
  EXPECT_EQ(script.commands[0].kind, EdCommand::Kind::kAppend);
  EXPECT_EQ(script.commands[0].line1, 1u);
  EXPECT_EQ(apply_ed_script("a\n", script).value(), "a\nb\nc\n");
}

TEST(EdScriptTest, InsertAtFront) {
  const EditScript script = script_between("b\n", "a\nb\n");
  ASSERT_EQ(script.commands.size(), 1u);
  EXPECT_EQ(script.commands[0].kind, EdCommand::Kind::kAppend);
  EXPECT_EQ(script.commands[0].line1, 0u);  // "0a" in ed
  EXPECT_EQ(apply_ed_script("b\n", script).value(), "a\nb\n");
}

TEST(EdScriptTest, PureDelete) {
  const EditScript script = script_between("a\nb\nc\n", "a\nc\n");
  ASSERT_EQ(script.commands.size(), 1u);
  EXPECT_EQ(script.commands[0].kind, EdCommand::Kind::kDelete);
  EXPECT_EQ(script.commands[0].line1, 2u);
  EXPECT_EQ(script.commands[0].line2, 2u);
  EXPECT_EQ(apply_ed_script("a\nb\nc\n", script).value(), "a\nc\n");
}

TEST(EdScriptTest, ChangeRange) {
  const EditScript script =
      script_between("a\nb\nc\nd\n", "a\nX\nY\nd\n");
  ASSERT_EQ(script.commands.size(), 1u);
  EXPECT_EQ(script.commands[0].kind, EdCommand::Kind::kChange);
  EXPECT_EQ(script.commands[0].line1, 2u);
  EXPECT_EQ(script.commands[0].line2, 3u);
  EXPECT_EQ(apply_ed_script("a\nb\nc\nd\n", script).value(), "a\nX\nY\nd\n");
}

TEST(EdScriptTest, MultipleHunksDescendingOrder) {
  const std::string old_text = "1\n2\n3\n4\n5\n6\n7\n8\n";
  const std::string new_text = "1\nX\n3\n4\nY\nZ\n6\n7\n8\nW\n";
  const EditScript script = script_between(old_text, new_text);
  ASSERT_GE(script.commands.size(), 2u);
  for (std::size_t i = 1; i < script.commands.size(); ++i) {
    EXPECT_LT(script.commands[i].line1, script.commands[i - 1].line1);
  }
  EXPECT_EQ(apply_ed_script(old_text, script).value(), new_text);
}

TEST(EdScriptTest, EmptyToContent) {
  const EditScript script = script_between("", "a\nb\n");
  EXPECT_EQ(apply_ed_script("", script).value(), "a\nb\n");
}

TEST(EdScriptTest, ContentToEmpty) {
  const EditScript script = script_between("a\nb\n", "");
  EXPECT_EQ(apply_ed_script("a\nb\n", script).value(), "");
}

TEST(EdScriptTest, NoTrailingNewlineHandled) {
  const std::string old_text = "a\nb";      // no trailing newline
  const std::string new_text = "a\nb\nc";   // still none
  const EditScript script = script_between(old_text, new_text);
  EXPECT_EQ(apply_ed_script(old_text, script).value(), new_text);
}

TEST(EdScriptTest, GainingTrailingNewline) {
  const EditScript script = script_between("a\nb", "a\nb\n");
  EXPECT_EQ(apply_ed_script("a\nb", script).value(), "a\nb\n");
}

TEST(EdScriptTest, ApplyToWrongBaseRejected) {
  const EditScript script = script_between("a\nb\n", "a\nc\n");
  auto result = apply_ed_script("a\nDIFFERENT\n", script);
  EXPECT_EQ(result.code(), ErrorCode::kVersionMismatch);
}

TEST(EdScriptTest, CorruptedScriptRejectedByBounds) {
  EditScript script = script_between("a\nb\nc\n", "a\nc\n");
  script.commands[0].line2 = 99;  // out of range
  EXPECT_FALSE(apply_ed_script("a\nb\nc\n", script).ok());
}

TEST(EdScriptTest, NonDescendingScriptRejected) {
  EditScript good = script_between("1\n2\n3\n4\n", "1\nX\n3\nY\n");
  ASSERT_EQ(good.commands.size(), 2u);
  EditScript bad = good;
  std::swap(bad.commands[0], bad.commands[1]);  // ascending now
  EXPECT_FALSE(apply_ed_script("1\n2\n3\n4\n", bad).ok());
}

TEST(EdScriptTest, InsertedBytesAccounting) {
  const EditScript script = script_between("a\n", "a\nhello\nworld\n");
  EXPECT_EQ(script.inserted_bytes(), 12u);  // "hello\n" + "world\n"
}

TEST(EdScriptTest, BinaryCodecRoundTrip) {
  const std::string old_text = "alpha\nbeta\ngamma\ndelta\n";
  const std::string new_text = "alpha\nBETA\ngamma\nepsilon\nzeta\n";
  const EditScript script = script_between(old_text, new_text);
  BufWriter w;
  encode_ed_script(script, w);
  BufReader r(w.data());
  auto decoded = decode_ed_script(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), script);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(apply_ed_script(old_text, decoded.value()).value(), new_text);
}

TEST(EdScriptTest, WireSizeMatchesEncoding) {
  const EditScript script = script_between("a\nb\n", "a\nc\n");
  BufWriter w;
  encode_ed_script(script, w);
  EXPECT_EQ(ed_script_wire_size(script), w.size());
}

TEST(EdScriptTest, WireSizeScalesWithChange) {
  const std::string base = []() {
    std::string t;
    for (int i = 0; i < 100; ++i) t += "line number " + std::to_string(i) + "\n";
    return t;
  }();
  std::string small_change = base;
  small_change.replace(0, 4, "LINE");
  std::string big_change;
  for (int i = 0; i < 100; ++i) {
    big_change += "totally different " + std::to_string(i * 7) + "\n";
  }
  const auto small_script = script_between(base, small_change);
  const auto big_script = script_between(base, big_change);
  EXPECT_LT(ed_script_wire_size(small_script), 64u);
  EXPECT_GT(ed_script_wire_size(big_script),
            20 * ed_script_wire_size(small_script));
}

TEST(EdScriptTest, DecodeTruncatedFails) {
  const EditScript script = script_between("a\nb\n", "a\nc\nd\n");
  BufWriter w;
  encode_ed_script(script, w);
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    Bytes partial(w.data().begin(),
                  w.data().begin() + static_cast<long>(cut));
    BufReader r(partial);
    auto decoded = decode_ed_script(r);
    // Either fails outright, or decodes a prefix that the CRC check in
    // apply would reject; it must never crash.
    if (decoded.ok()) {
      (void)apply_ed_script("a\nb\n", decoded.value());
    }
  }
}

TEST(EdScriptTest, TextRenderingLooksLikeEd) {
  const EditScript script = script_between("a\nb\nc\n", "a\nX\n");
  const std::string text = ed_script_to_text(script);
  // Change of lines 2,3 into one line: "2,3c\nX\n.\n".
  EXPECT_NE(text.find("2,3c\n"), std::string::npos);
  EXPECT_NE(text.find("X\n.\n"), std::string::npos);
}

TEST(EdScriptTest, TextRenderingEscapesDotLine) {
  const EditScript script = script_between("a\n", "a\n.\n");
  const std::string text = ed_script_to_text(script);
  EXPECT_NE(text.find("..\n"), std::string::npos);
}

// ---- text parser (interop with ed / diff -e) ----

TEST(EdTextParseTest, RoundTripThroughText) {
  const std::string old_text = "alpha\nbeta\ngamma\ndelta\nepsilon\n";
  const std::string new_text = "alpha\nBETA!\ngamma\nzeta\nepsilon\neta\n";
  const EditScript script = script_between(old_text, new_text);
  auto parsed = parse_ed_script_text(ed_script_to_text(script), old_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(apply_ed_script(old_text, parsed.value()).value(), new_text);
}

TEST(EdTextParseTest, DotLinesSurviveTextRoundTrip) {
  const std::string old_text = "keep\n";
  const std::string new_text = "keep\n.\n..\n.leading\n";
  const EditScript script = script_between(old_text, new_text);
  auto parsed = parse_ed_script_text(ed_script_to_text(script), old_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(apply_ed_script(old_text, parsed.value()).value(), new_text);
}

TEST(EdTextParseTest, HandwrittenScript) {
  // A script a human (or 1987's diff -e) would write.
  const std::string base = "one\ntwo\nthree\nfour\n";
  const std::string script_text =
      "4d\n"
      "2,3c\n"
      "TWO\n"
      "THREE\n"
      ".\n"
      "0a\n"
      "zero\n"
      ".\n";
  auto parsed = parse_ed_script_text(script_text, base);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(apply_ed_script(base, parsed.value()).value(),
            "zero\none\nTWO\nTHREE\n");
}

TEST(EdTextParseTest, RejectsMalformedScripts) {
  const std::string base = "a\nb\n";
  EXPECT_FALSE(parse_ed_script_text("2x\n", base).ok());
  EXPECT_FALSE(parse_ed_script_text("c\n.\n", base).ok());     // no address
  EXPECT_FALSE(parse_ed_script_text("1a\nnew line\n", base).ok());  // no "."
  EXPECT_FALSE(parse_ed_script_text("9,12d\n", base).ok());  // out of range
  EXPECT_FALSE(parse_ed_script_text("1,xd\n", base).ok());
}

TEST(EdTextParseTest, InteropWithRealDiffDashE) {
  // End-to-end interop: the REAL diff(1) computes the ed script (exactly
  // what the 1987 prototype shipped) and OUR engine applies it.
  if (std::system("command -v diff > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "diff(1) not available";
  }
  const std::string old_text =
      "program shadow\n  integer i\n  do 10 i = 1, 100\n"
      "10 continue\n  stop\n  end\n";
  const std::string new_text =
      "program shadow\n  integer i, j\n  j = 0\n  do 10 i = 1, 200\n"
      "10 continue\n  stop\n  end\n";
  const std::string dir = ::testing::TempDir();
  const std::string old_path = dir + "/shadow_old.f";
  const std::string new_path = dir + "/shadow_new.f";
  const std::string script_path = dir + "/shadow.ed";
  ASSERT_TRUE(write_disk_file(old_path,
                              Bytes(old_text.begin(), old_text.end()))
                  .ok());
  ASSERT_TRUE(write_disk_file(new_path,
                              Bytes(new_text.begin(), new_text.end()))
                  .ok());
  const std::string cmd =
      "diff -e " + old_path + " " + new_path + " > " + script_path;
  // diff exits 1 when files differ; that's success here.
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) <= 1);
  auto script_bytes = read_disk_file(script_path);
  ASSERT_TRUE(script_bytes.ok());
  const std::string script_text(script_bytes.value().begin(),
                                script_bytes.value().end());

  auto parsed = parse_ed_script_text(script_text, old_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string() << "\nscript:\n"
                           << script_text;
  EXPECT_EQ(apply_ed_script(old_text, parsed.value()).value(), new_text);
}

// ---- Replay parity ----
//
// apply_ed_script replays into one output string without materializing
// the base's lines. These tests pin its behaviour, success and error code
// alike, to ed's sequential vector-of-lines replay, kept here as the
// reference.

// The reference replay up to, not including, the target CRC check.
struct Reference {
  std::string text;
  u64 line_count = 0;
};

Result<Reference> sequential_reference(const std::string& base,
                                       const EditScript& script) {
  if (crc32(reinterpret_cast<const u8*>(base.data()), base.size()) !=
      script.old_crc) {
    return Error{ErrorCode::kVersionMismatch, "stale base"};
  }
  std::vector<std::string> lines = split_lines(base);
  if (lines.size() != script.old_line_count) {
    return Error{ErrorCode::kVersionMismatch, "line count"};
  }
  u64 prev_line1 = static_cast<u64>(lines.size()) + 2;
  for (const auto& cmd : script.commands) {
    if (cmd.line1 >= prev_line1) {
      return Error{ErrorCode::kInvalidArgument, "order"};
    }
    prev_line1 = cmd.line1 == 0 ? 1 : cmd.line1;
    if (cmd.kind == EdCommand::Kind::kAppend) {
      if (cmd.line1 > lines.size()) {
        return Error{ErrorCode::kInvalidArgument, "append range"};
      }
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(cmd.line1),
                   cmd.text.begin(), cmd.text.end());
      continue;
    }
    if (cmd.line1 < 1 || cmd.line2 < cmd.line1 || cmd.line2 > lines.size()) {
      return Error{ErrorCode::kInvalidArgument, "range"};
    }
    auto pos = lines.erase(
        lines.begin() + static_cast<std::ptrdiff_t>(cmd.line1 - 1),
        lines.begin() + static_cast<std::ptrdiff_t>(cmd.line2));
    if (cmd.kind == EdCommand::Kind::kChange) {
      lines.insert(pos, cmd.text.begin(), cmd.text.end());
    }
  }
  return Reference{join_lines(lines), lines.size()};
}

u32 crc_of(const std::string& s) {
  return crc32(reinterpret_cast<const u8*>(s.data()), s.size());
}

TEST(EdApplyParityTest, MalformedScriptsKeepTheirErrorCodes) {
  const std::string base = "1\n2\n3\n4\n5\n";
  const EditScript good = script_between(base, "1\nX\n3\n4\nY\nZ\n");
  ASSERT_EQ(good.commands.size(), 2u);
  ASSERT_TRUE(apply_ed_script(base, good).ok());

  struct Case {
    const char* what;
    EditScript script;
    ErrorCode code;
  };
  std::vector<Case> cases;
  {
    EditScript s = good;
    std::swap(s.commands[0], s.commands[1]);
    cases.push_back({"ascending order", s, ErrorCode::kInvalidArgument});
  }
  {
    EditScript s = good;
    s.commands[1].line1 = s.commands[0].line1;
    cases.push_back({"repeated line1", s, ErrorCode::kInvalidArgument});
  }
  {
    EditScript s = good;
    s.commands[0].line2 = 6;
    cases.push_back({"range past end", s, ErrorCode::kInvalidArgument});
  }
  {
    EditScript s = good;
    s.commands[1].line1 = 0;
    s.commands[1].line2 = 0;
    cases.push_back({"change at line 0", s, ErrorCode::kInvalidArgument});
  }
  {
    EditScript s = good;
    s.commands[1].line2 = s.commands[1].line1 - 1;
    cases.push_back({"line2 before line1", s, ErrorCode::kInvalidArgument});
  }
  {
    EditScript s = good;
    EdCommand append;
    append.kind = EdCommand::Kind::kAppend;
    append.line1 = 6;
    append.text = {"tail\n"};
    s.commands.insert(s.commands.begin(), append);
    cases.push_back({"append past end", s, ErrorCode::kInvalidArgument});
  }
  {
    EditScript s = good;
    s.old_line_count = 4;
    cases.push_back({"wrong old_line_count", s, ErrorCode::kVersionMismatch});
  }
  {
    EditScript s = good;
    s.old_crc ^= 1;
    cases.push_back({"stale base crc", s, ErrorCode::kVersionMismatch});
  }
  {
    EditScript s = good;
    s.new_crc ^= 1;
    cases.push_back({"bad target crc", s, ErrorCode::kInternal});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(apply_ed_script(base, c.script).code(), c.code);
    const auto reference = sequential_reference(base, c.script);
    const ErrorCode reference_code =
        !reference.ok() ? reference.code()
        : crc_of(reference.value().text) != c.script.new_crc
            ? ErrorCode::kInternal
            : ErrorCode::kOk;
    EXPECT_EQ(reference_code, c.code);
  }
}

TEST(EdApplyParityTest, OverlappingRangesFollowSequentialSemantics) {
  // The second command reaches into the line the first one wrote; ed
  // applies it to the buffer as the first command left it.
  const std::string base = "1\n2\n3\n4\n5\n";
  EditScript script;
  script.old_line_count = 5;
  script.old_crc = crc_of(base);
  EdCommand first;
  first.kind = EdCommand::Kind::kChange;
  first.line1 = 4;
  first.line2 = 4;
  first.text = {"X\n", "X2\n"};
  EdCommand second;
  second.kind = EdCommand::Kind::kChange;
  second.line1 = 2;
  second.line2 = 4;
  second.text = {"Y\n"};
  script.commands = {first, second};
  script.new_crc = crc_of("1\nY\nX2\n5\n");
  EXPECT_EQ(apply_ed_script(base, script).value(), "1\nY\nX2\n5\n");
  EXPECT_EQ(sequential_reference(base, script).value().text,
            "1\nY\nX2\n5\n");
}

TEST(EdApplyParityTest, RandomScriptsMatchSequentialReference) {
  Rng rng(2024);
  for (int round = 0; round < 4000; ++round) {
    const std::size_t n = rng.below(10);
    std::string base;
    for (std::size_t i = 0; i < n; ++i) {
      base += "b" + std::to_string(i);
      if (i + 1 < n || rng.chance(0.7)) base += '\n';
    }
    EditScript script;
    script.old_line_count = count_lines(base);
    script.old_crc = crc_of(base);
    if (rng.chance(0.05)) script.old_line_count += 1;
    bool text_form = true;  // every entry "tN\n", so the ed text round-trips
    u64 line1 = n + 1 - rng.below(2);
    const std::size_t commands = rng.below(5);
    for (std::size_t c = 0; c < commands; ++c) {
      EdCommand cmd;
      cmd.kind = static_cast<EdCommand::Kind>(rng.below(3));
      // Mostly descending, sometimes repeated or rising.
      line1 = rng.chance(0.9) ? rng.below(line1 + 1) : line1 + rng.below(3);
      cmd.line1 = line1;
      cmd.line2 = cmd.kind == EdCommand::Kind::kAppend
                      ? cmd.line1
                      : cmd.line1 + rng.below(4) - (rng.chance(0.05) ? 1 : 0);
      // A delete may carry text too (a corrupted kind byte leaves it
      // there); replay must ignore it.
      const std::size_t lines = rng.below(4);
      for (std::size_t j = 0; j < lines; ++j) {
        if (rng.chance(0.1)) {
          cmd.text.push_back(rng.chance(0.5) ? "u" : "");
          text_form = false;
        } else {
          cmd.text.push_back("t" + std::to_string(rng.below(100)) + "\n");
        }
      }
      script.commands.push_back(std::move(cmd));
    }
    SCOPED_TRACE("round " + std::to_string(round) + " script:\n" +
                 ed_script_to_text(script) + "base:\n" + base);

    const auto expected = sequential_reference(base, script);
    if (!expected.ok()) {
      ASSERT_EQ(apply_ed_script(base, script).code(), expected.code());
      if (text_form && script.old_line_count == count_lines(base)) {
        ASSERT_EQ(parse_ed_script_text(ed_script_to_text(script), base).code(),
                  expected.code());
      }
      continue;
    }
    script.new_crc = crc_of(expected.value().text);
    ASSERT_EQ(apply_ed_script(base, script).value(), expected.value().text);
    EditScript wrong_target = script;
    wrong_target.new_crc ^= 0x80000000u;
    ASSERT_EQ(apply_ed_script(base, wrong_target).code(),
              ErrorCode::kInternal);
    if (text_form) {
      // The text parser derives the target through the same replay.
      auto parsed = parse_ed_script_text(ed_script_to_text(script), base);
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
      EXPECT_EQ(parsed.value().new_line_count, expected.value().line_count);
      EXPECT_EQ(parsed.value().new_crc, script.new_crc);
    }
  }
}

}  // namespace
}  // namespace shadow::diff
