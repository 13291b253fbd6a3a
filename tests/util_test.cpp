// Unit tests for the util module: Result, CRC32, RNG, byte IO, strings,
// line model, logging.
#include <gtest/gtest.h>

#include "util/byte_io.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace shadow {
namespace {

// ---- Result ----

Result<int> parse_positive(int v) {
  if (v <= 0) return Error{ErrorCode::kInvalidArgument, "not positive"};
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = parse_positive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(r.code(), ErrorCode::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = parse_positive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.error().to_string().find("INVALID_ARGUMENT"),
            std::string::npos);
}

TEST(ResultTest, ValueOr) {
  EXPECT_EQ(parse_positive(7).value_or(0), 7);
  EXPECT_EQ(parse_positive(-7).value_or(42), 42);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

Status needs_even(int v) {
  if (v % 2 != 0) return Error{ErrorCode::kInvalidArgument, "odd"};
  return Status();
}

Status chain(int v) {
  SHADOW_TRY(needs_even(v));
  return Status();
}

TEST(StatusTest, TryPropagates) {
  EXPECT_TRUE(chain(2).ok());
  EXPECT_FALSE(chain(3).ok());
  EXPECT_EQ(chain(3).code(), ErrorCode::kInvalidArgument);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(ErrorCodeTest, AllNamesDistinct) {
  // Every enum value maps to a distinct, non-"UNKNOWN" name.
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    names.insert(error_code_name(static_cast<ErrorCode>(i)));
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(ErrorCode::kInternal) + 1);
  EXPECT_EQ(names.count("UNKNOWN"), 0u);
}

// ---- logging ----

TEST(LoggingTest, LevelFromNameInvertsLevelName) {
  for (LogLevel level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    auto parsed = log_level_from_name(log_level_name(level));
    ASSERT_TRUE(parsed.ok()) << log_level_name(level);
    EXPECT_EQ(parsed.value(), level);
  }
}

TEST(LoggingTest, LevelFromNameAcceptsAnyCaseAndAliases) {
  EXPECT_EQ(log_level_from_name("debug").value(), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_name("WARNING").value(), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_name("none").value(), LogLevel::kOff);
  EXPECT_FALSE(log_level_from_name("chatty").ok());
  EXPECT_FALSE(log_level_from_name("").ok());
}

// ---- CRC32 ----

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") == 0xCBF43926 (standard check value).
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const u8*>(s.data()), s.size()),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(crc32(Bytes{}), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Rng rng(1);
  const Bytes data = rng.bytes(10000);
  Crc32 inc;
  inc.update(data.data(), 1234);
  inc.update(data.data() + 1234, data.size() - 1234);
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32Test, SensitiveToSingleBit) {
  Bytes a(100, 0x55);
  Bytes b = a;
  b[50] ^= 0x01;
  EXPECT_NE(crc32(a), crc32(b));
}

// Bit-at-a-time IEEE CRC-32 straight from the reflected polynomial: the
// reference the word-at-a-time kernel must match bit for bit.
u32 reference_crc32(const u8* data, std::size_t len) {
  u32 crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(7);
  const Bytes data = rng.bytes(1100 + 8);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc32(data.data() + start, len),
                reference_crc32(data.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32Test, EverySplitPointOfIncrementalUpdateMatchesReference) {
  Rng rng(8);
  const Bytes data = rng.bytes(4096);
  const u32 expected = reference_crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 inc;
    inc.update(data.data(), split);
    inc.update(data.data() + split, data.size() - split);
    ASSERT_EQ(inc.value(), expected) << "split " << split;
  }
}

TEST(Crc32Test, OneMebibyteMatchesReference) {
  Rng rng(9);
  const Bytes data = rng.bytes(1 << 20);
  EXPECT_EQ(crc32(data), reference_crc32(data.data(), data.size()));
}

TEST(Crc32Test, CombineComposesRandomSplitsIntoReference) {
  Rng rng(10);
  for (int round = 0; round < 200; ++round) {
    const Bytes data = rng.bytes(rng.below(3000));
    const std::size_t a = rng.below(data.size() + 1);
    const std::size_t b = a + rng.below(data.size() - a + 1);
    // Three pieces folded left to right, as a CDC digest list is.
    u32 crc = crc32(data.data(), a);
    crc = crc32_combine(crc, crc32(data.data() + a, b - a), b - a);
    crc = crc32_combine(crc, crc32(data.data() + b, data.size() - b),
                        data.size() - b);
    ASSERT_EQ(crc, reference_crc32(data.data(), data.size()))
        << "round " << round << " splits " << a << "," << b;
  }
}

// ---- Rng ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, AsciiLineLengthAndCharset) {
  Rng rng(11);
  const std::string line = rng.ascii_line(500);
  EXPECT_EQ(line.size(), 500u);
  for (char c : line) {
    EXPECT_TRUE(std::isprint(static_cast<unsigned char>(c))) << int(c);
    EXPECT_NE(c, '\n');
  }
}

// ---- BufWriter / BufReader ----

TEST(ByteIoTest, FixedWidthRoundTrip) {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  BufReader r(w.data());
  EXPECT_EQ(r.get_u8().value(), 0xAB);
  EXPECT_EQ(r.get_u16().value(), 0x1234);
  EXPECT_EQ(r.get_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteIoTest, VarintRoundTripBoundaries) {
  const u64 cases[] = {0,   1,    127,  128,   16383, 16384,
                       1u << 21, (1ull << 35) + 7, ~0ull};
  for (u64 v : cases) {
    BufWriter w;
    w.put_varint(v);
    BufReader r(w.data());
    EXPECT_EQ(r.get_varint().value(), v) << v;
  }
}

TEST(ByteIoTest, VarintSmallValuesAreOneByte) {
  BufWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(ByteIoTest, SignedVarintRoundTrip) {
  const i64 cases[] = {0, -1, 1, -64, 64, -12345678, 12345678,
                       INT64_MIN, INT64_MAX};
  for (i64 v : cases) {
    BufWriter w;
    w.put_varint_signed(v);
    BufReader r(w.data());
    EXPECT_EQ(r.get_varint_signed().value(), v) << v;
  }
}

TEST(ByteIoTest, StringAndBytesRoundTrip) {
  BufWriter w;
  w.put_string("hello\0world");  // embedded NUL truncated by literal, fine
  w.put_string("");
  Bytes blob = {1, 2, 3, 255, 0, 42};
  w.put_bytes(blob);
  BufReader r(w.data());
  EXPECT_EQ(r.get_string().value(), "hello");
  EXPECT_EQ(r.get_string().value(), "");
  EXPECT_EQ(r.get_bytes().value(), blob);
}

TEST(ByteIoTest, ReadPastEndFails) {
  BufWriter w;
  w.put_u16(7);
  BufReader r(w.data());
  ASSERT_TRUE(r.get_u16().ok());
  EXPECT_EQ(r.get_u8().code(), ErrorCode::kProtocolError);
}

TEST(ByteIoTest, TruncatedLengthPrefixFails) {
  BufWriter w;
  w.put_varint(1000);  // claims 1000 bytes follow
  w.put_u8('x');
  BufReader r(w.data());
  EXPECT_EQ(r.get_bytes().code(), ErrorCode::kProtocolError);
}

TEST(ByteIoTest, OverlongVarintFails) {
  Bytes evil(11, 0x80);  // continuation forever
  BufReader r(evil);
  EXPECT_EQ(r.get_varint().code(), ErrorCode::kProtocolError);
}

// ---- strings ----

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, SplitNonempty) {
  EXPECT_EQ(split_nonempty("a,,b,", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_nonempty("", ',').empty());
}

TEST(StringsTest, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, "/"), "x/y/z");
  EXPECT_EQ(join({}, "/"), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, Affixes) {
  EXPECT_TRUE(starts_with("/usr/local", "/usr"));
  EXPECT_FALSE(starts_with("/us", "/usr"));
  EXPECT_TRUE(ends_with("file.txt", ".txt"));
  EXPECT_FALSE(ends_with("txt", "file.txt"));
}

TEST(StringsTest, FormatHelpers) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_duration(5.0), "5.0s");
  EXPECT_EQ(format_duration(125.0), "2m 5.0s");
}

// ---- text (line model) ----

TEST(TextTest, SplitLinesConventions) {
  EXPECT_TRUE(split_lines("").empty());
  EXPECT_EQ(split_lines("a\nb"), (std::vector<std::string>{"a\n", "b"}));
  EXPECT_EQ(split_lines("a\n"), (std::vector<std::string>{"a\n"}));
  EXPECT_EQ(split_lines("\n\n"), (std::vector<std::string>{"\n", "\n"}));
  EXPECT_EQ(split_lines("x"), (std::vector<std::string>{"x"}));
}

TEST(TextTest, JoinInverts) {
  const std::string cases[] = {"", "a", "a\n", "a\nb", "a\nb\n", "\n",
                               "\n\nx", "line1\nline2\nline3"};
  for (const auto& c : cases) {
    EXPECT_EQ(join_lines(split_lines(c)), c) << "case: " << c;
  }
}

TEST(TextTest, CountLinesMatchesSplit) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    std::string text;
    const int lines = static_cast<int>(rng.below(20));
    for (int j = 0; j < lines; ++j) {
      text += rng.ascii_line(rng.below(30));
      if (rng.chance(0.9) || j + 1 < lines) text += '\n';
    }
    EXPECT_EQ(count_lines(text), split_lines(text).size());
  }
}

// ---- logging ----

TEST(LoggingTest, SinkCapturesAtOrAboveLevel) {
  auto& logger = Logger::instance();
  const LogLevel old_level = logger.level();
  std::vector<std::string> captured;
  logger.set_sink([&](LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });
  logger.set_level(LogLevel::kInfo);

  SHADOW_DEBUG() << "hidden";
  SHADOW_INFO() << "visible " << 42;
  SHADOW_ERROR() << "also visible";

  logger.set_sink(nullptr);
  logger.set_level(old_level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "visible 42");
  EXPECT_EQ(captured[1], "also visible");
}

TEST(LoggingTest, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::kTrace), "TRACE");
  EXPECT_STREQ(log_level_name(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace shadow
