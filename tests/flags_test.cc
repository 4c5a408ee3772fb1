#include "util/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace pgm {
namespace {

// Builds a mutable argv from string literals.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& s : storage_) argv_.push_back(s.data());
  }
  int argc() { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
};

TEST(FlagsTest, ParsesEqualsForm) {
  FlagSet flags("test");
  std::int64_t n = 0;
  double d = 0;
  std::string s;
  flags.AddInt64("n", &n, "an int");
  flags.AddDouble("d", &d, "a double");
  flags.AddString("s", &s, "a string");
  Args args({"prog", "--n=5", "--d=1.5", "--s=hello"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(n, 5);
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_EQ(s, "hello");
}

TEST(FlagsTest, ParsesSpaceForm) {
  FlagSet flags("test");
  std::int64_t n = 0;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog", "--n", "42"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(n, 42);
}

TEST(FlagsTest, DefaultsSurviveWhenUnset) {
  FlagSet flags("test");
  std::int64_t n = 7;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(n, 7);
}

TEST(FlagsTest, BareBoolFlagSetsTrue) {
  FlagSet flags("test");
  bool b = false;
  flags.AddBool("verbose", &b, "a bool");
  Args args({"prog", "--verbose"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(b);
}

TEST(FlagsTest, BoolAcceptsExplicitValues) {
  FlagSet flags("test");
  bool b = true;
  flags.AddBool("verbose", &b, "a bool");
  Args args({"prog", "--verbose=false"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_FALSE(b);

  bool b2 = false;
  FlagSet flags2("test");
  flags2.AddBool("verbose", &b2, "a bool");
  Args args2({"prog", "--verbose=1"});
  ASSERT_TRUE(flags2.Parse(args2.argc(), args2.argv()).ok());
  EXPECT_TRUE(b2);
}

TEST(FlagsTest, RejectsBadBool) {
  FlagSet flags("test");
  bool b = false;
  flags.AddBool("verbose", &b, "a bool");
  Args args({"prog", "--verbose=banana"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagSet flags("test");
  Args args({"prog", "--mystery=1"});
  Status status = flags.Parse(args.argc(), args.argv());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("mystery"), std::string::npos);
}

TEST(FlagsTest, RejectsMissingValue) {
  FlagSet flags("test");
  std::int64_t n = 0;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog", "--n"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagsTest, RejectsBadInteger) {
  FlagSet flags("test");
  std::int64_t n = 0;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog", "--n=abc"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagsTest, CallbackFlagParsesThroughItsSetter) {
  FlagSet flags("test");
  std::string seen;
  flags.AddCallback("level", "a checked level", "low",
                    [&seen](const std::string& text) -> Status {
                      if (text != "low" && text != "high") {
                        return Status::InvalidArgument("not a level");
                      }
                      seen = text;
                      return Status::OK();
                    });
  Args good({"prog", "--level", "high"});
  ASSERT_TRUE(flags.Parse(good.argc(), good.argv()).ok());
  EXPECT_EQ(seen, "high");
  EXPECT_NE(flags.Usage().find("(default: low)"), std::string::npos);

  Args bad({"prog", "--level=mid"});
  const Status status = flags.Parse(bad.argc(), bad.argv());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bad value for --level: not a level"),
            std::string::npos)
      << status.message();
}

TEST(FlagsTest, BadValueErrorsNameTheFlag) {
  FlagSet flags("test");
  std::int64_t n = 0;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog", "--n=abc"});
  const Status status = flags.Parse(args.argc(), args.argv());
  EXPECT_NE(status.message().find("--n"), std::string::npos)
      << status.message();
}

TEST(FlagsTest, CollectsPositionalArgs) {
  FlagSet flags("test");
  std::int64_t n = 0;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog", "input.txt", "--n=1", "output.txt"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(flags.positional_args(),
            (std::vector<std::string>{"input.txt", "output.txt"}));
}

TEST(FlagsTest, HelpReturnsUsageAsNotFound) {
  FlagSet flags("my program");
  std::int64_t n = 3;
  flags.AddInt64("n", &n, "an int");
  Args args({"prog", "--help"});
  Status status = flags.Parse(args.argc(), args.argv());
  ASSERT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("my program"), std::string::npos);
  EXPECT_NE(status.message().find("--n"), std::string::npos);
  EXPECT_NE(status.message().find("default: 3"), std::string::npos);
}

TEST(FlagsTest, UsageListsAllFlagsWithDefaults) {
  FlagSet flags("desc");
  bool b = true;
  std::string s = "abc";
  flags.AddBool("flag_b", &b, "bool flag");
  flags.AddString("flag_s", &s, "string flag");
  std::string usage = flags.Usage();
  EXPECT_NE(usage.find("flag_b"), std::string::npos);
  EXPECT_NE(usage.find("default: true"), std::string::npos);
  EXPECT_NE(usage.find("default: abc"), std::string::npos);
}

}  // namespace
}  // namespace pgm
