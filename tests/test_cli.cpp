#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace toka::util {
namespace {

Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Cli, EqualsForm) {
  const auto args = make_args({"prog", "--n=5000", "--name=test"});
  EXPECT_EQ(args.get_int("n", 0), 5000);
  EXPECT_EQ(args.get_string("name", ""), "test");
}

TEST(Cli, SpaceForm) {
  const auto args = make_args({"prog", "--n", "42"});
  EXPECT_EQ(args.get_int("n", 0), 42);
}

TEST(Cli, BareFlag) {
  const auto args = make_args({"prog", "--full", "--n=1"});
  EXPECT_TRUE(args.get_flag("full"));
  EXPECT_FALSE(args.get_flag("absent"));
}

TEST(Cli, FlagWithValue) {
  EXPECT_TRUE(make_args({"p", "--x=true"}).get_flag("x"));
  EXPECT_TRUE(make_args({"p", "--x=YES"}).get_flag("x"));
  EXPECT_TRUE(make_args({"p", "--x=1"}).get_flag("x"));
  EXPECT_FALSE(make_args({"p", "--x=0"}).get_flag("x"));
  EXPECT_FALSE(make_args({"p", "--x=no"}).get_flag("x"));
  EXPECT_FALSE(make_args({"p", "--x=OFF"}).get_flag("x"));
  EXPECT_FALSE(make_args({"p", "--x=false"}).get_flag("x"));
}

TEST(Cli, FlagWithSpacedZeroOrOneReadsIt) {
  // tokabench's form: --trace 0|1 binds the next token as the value.
  const auto off = make_args({"p", "--trace", "0", "--child"});
  EXPECT_FALSE(off.get_flag("trace"));
  EXPECT_TRUE(off.get_flag("child"));
  EXPECT_TRUE(make_args({"p", "--trace", "1"}).get_flag("trace"));
}

TEST(Cli, FlagWithAStrayValueThrowsNamingIt) {
  // "--quick foo" binds foo as the value; reading it as false would
  // silently run a full-size workload.
  const auto args = make_args({"p", "--quick", "foo"});
  try {
    args.get_flag("quick");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("--quick"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("foo"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, Defaults) {
  const auto args = make_args({"prog"});
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.25), 0.25);
  EXPECT_EQ(args.get_string("s", "dflt"), "dflt");
}

TEST(Cli, Positionals) {
  const auto args = make_args({"prog", "one", "--k=2", "two"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, NamesListsEveryNamedArgumentOnce) {
  const auto args = make_args(
      {"prog", "--zeta=1", "pos", "--alpha", "2", "--flag", "--zeta=3"});
  EXPECT_EQ(args.names(), (std::vector<std::string>{"alpha", "flag", "zeta"}));
  EXPECT_TRUE(make_args({"prog", "pos"}).names().empty());
}

TEST(Cli, IntList) {
  const auto args = make_args({"prog", "--a=1,2,5,10"});
  const auto list = args.get_int_list("a", {});
  EXPECT_EQ(list, (std::vector<std::int64_t>{1, 2, 5, 10}));
}

TEST(Cli, IntListFallback) {
  const auto args = make_args({"prog"});
  const auto list = args.get_int_list("a", {3, 4});
  EXPECT_EQ(list, (std::vector<std::int64_t>{3, 4}));
}

TEST(Cli, MalformedIntThrows) {
  const auto args = make_args({"prog", "--n=abc"});
  EXPECT_THROW(args.get_int("n", 0), IoError);
}

TEST(Cli, MalformedDoubleThrows) {
  const auto args = make_args({"prog", "--x=oops"});
  EXPECT_THROW(args.get_double("x", 0.0), IoError);
}

TEST(Cli, DoubleParsing) {
  const auto args = make_args({"prog", "--beta=0.01"});
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0), 0.01);
}

TEST(Cli, HasDetectsPresence) {
  const auto args = make_args({"prog", "--present"});
  EXPECT_TRUE(args.has("present"));
  EXPECT_FALSE(args.has("missing"));
}

}  // namespace
}  // namespace toka::util
