/**
 * @file
 * Tests of the bench option-parsing helpers: the strict unsigned
 * parser, --jobs/--refs/--seed/--quick, registered extra flags, the
 * comma-list parsers, and the catalog driver's per-experiment flag
 * rules.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "bench_util.hh"
#include "catalog_driver.hh"

using namespace memwall;

namespace {

/** Build a mutable argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::initializer_list<const char *> args)
        : strings_(args.begin(), args.end())
    {
        for (auto &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

TEST(BenchUtil, DefaultsWithNoArguments)
{
    Argv a{"bench"};
    const auto opt = benchutil::parse(a.argc(), a.argv());
    EXPECT_EQ(opt.refs, 0u);
    EXPECT_FALSE(opt.quick);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_EQ(opt.jobs, benchutil::defaultJobs());
    EXPECT_TRUE(opt.extra.empty());
}

TEST(BenchUtil, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(benchutil::defaultJobs(), 1u);
}

TEST(BenchUtil, ParsesCoreFlags)
{
    Argv a{"bench", "--refs", "500000", "--quick", "--seed", "7",
           "--jobs", "3"};
    const auto opt = benchutil::parse(a.argc(), a.argv());
    EXPECT_EQ(opt.refs, 500000u);
    EXPECT_TRUE(opt.quick);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_EQ(opt.jobs, 3u);
}

TEST(BenchUtil, JobsZeroMeansHardwareDefault)
{
    Argv a{"bench", "--jobs", "0"};
    const auto opt = benchutil::parse(a.argc(), a.argv());
    EXPECT_EQ(opt.jobs, benchutil::defaultJobs());
}

TEST(BenchUtil, HexAndDecimalValues)
{
    Argv a{"bench", "--seed", "0x10", "--refs", "0x400"};
    const auto opt = benchutil::parse(a.argc(), a.argv());
    EXPECT_EQ(opt.seed, 16u);
    EXPECT_EQ(opt.refs, 1024u);
}

TEST(BenchUtil, ExtraFlagsLandInMap)
{
    Argv a{"bench", "--reseeds", "0,777,31415", "--jobs", "2",
           "--mode", "fast"};
    const auto opt = benchutil::parse(a.argc(), a.argv(),
                                      {"--reseeds", "--mode"});
    EXPECT_EQ(opt.jobs, 2u);
    EXPECT_EQ(opt.extraOr("--reseeds", ""), "0,777,31415");
    EXPECT_EQ(opt.extraOr("--mode", ""), "fast");
    EXPECT_EQ(opt.extraOr("--absent", "dflt"), "dflt");
}

TEST(BenchUtilDeathTest, UnknownFlagExitsWithUsage)
{
    Argv a{"bench", "--bogus"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "usage:");
}

TEST(BenchUtilDeathTest, UnknownFlagIsNamedInTheError)
{
    Argv a{"bench", "--bogus"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "unknown flag '--bogus'");
}

TEST(BenchUtilDeathTest, UnregisteredExtraFlagExits)
{
    Argv a{"bench", "--mode", "fast"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--reseeds"}),
                testing::ExitedWithCode(2), "usage:");
}

TEST(BenchUtilDeathTest, MissingValueNamesTheFlag)
{
    Argv a{"bench", "--seed"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "missing value for --seed");
}

TEST(BenchUtilDeathTest, MissingValueForExtraFlag)
{
    Argv a{"bench", "--reseeds"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv(), {"--reseeds"}),
                testing::ExitedWithCode(2),
                "missing value for --reseeds");
}

TEST(BenchUtilDeathTest, NonNumericValueRejected)
{
    // Silently mapping `--jobs abc` to the hardware default hid
    // typos; it must be a named parse error instead.
    Argv a{"bench", "--jobs", "abc"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "invalid value 'abc' for --jobs");
}

TEST(ParseUnsigned, WholeUnsignedTextThatFitsOnly)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("0x10"), 16u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              18446744073709551615u);
    EXPECT_EQ(parseUnsigned<unsigned>("4294967295"), 4294967295u);
    for (const char *bad : {"", "-1", "+5", " 5", "5 ", "12x", "0x",
                            "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad)) << "'" << bad << "'";
    EXPECT_FALSE(parseUnsigned<unsigned>("4294967296"));
    EXPECT_FALSE(parseUnsigned(nullptr));
}

TEST(BenchUtilDeathTest, SignedOrOversizedValueRejected)
{
    // A sign would wrap to 2^64-1, and 4294967296 would narrow to 0,
    // which --jobs reads as the default: both must be named errors.
    struct Case
    {
        const char *flag;
        const char *value;
    };
    for (const Case c : {Case{"--seed", "-1"}, Case{"--jobs", "-1"},
                         Case{"--jobs", "4294967296"},
                         Case{"--refs", " 5"}}) {
        Argv a{"bench", c.flag, c.value};
        EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                    testing::ExitedWithCode(2),
                    std::string("invalid value '") + c.value +
                        "' for " + c.flag)
            << c.flag << " " << c.value;
    }
}

TEST(BenchUtilDeathTest, TrailingJunkInValueRejected)
{
    Argv a{"bench", "--refs", "12x"};
    EXPECT_EXIT(benchutil::parse(a.argc(), a.argv()),
                testing::ExitedWithCode(2),
                "invalid value '12x' for --refs");
}

TEST(BenchUtilDeathTest, SplashFigureRejectsRefs)
{
    // fig13..fig17 size their problem by --quick alone: a --refs
    // they would silently ignore is a usage error naming it, by the
    // rule mw-server applies to the "refs" field.
    Argv a{"fig13_lu", "--quick", "--refs", "5"};
    EXPECT_EXIT(benchutil::runCatalogBench(server::Experiment::Fig13Lu,
                                           "", a.argc(), a.argv(),
                                           nullptr),
                testing::ExitedWithCode(2),
                "\"refs\" does not apply to experiment \"fig13\"");
    // SPLASH runs are never sampled: --sample is not one of their
    // flags.
    Argv s{"fig13_lu", "--quick", "--sample", "U=500,W=1000,k=50"};
    EXPECT_EXIT(benchutil::runCatalogBench(server::Experiment::Fig13Lu,
                                           "", s.argc(), s.argv(),
                                           nullptr),
                testing::ExitedWithCode(2),
                "unknown flag '--sample'");
}

TEST(BenchUtilDeathTest, MissRateBenchesRejectCheckpointFlags)
{
    // Figures 7 and 8 take no checkpoint directory and no resume
    // journal: both flags are unknown flags, even beside a
    // stratified plan, and the rejected run creates neither path.
    const std::string dir =
        ::testing::TempDir() + "benchutil-removed-ckpt-dir";
    const std::string journal =
        ::testing::TempDir() + "benchutil-removed-resume.mwsj";
    ::rmdir(dir.c_str());
    ::unlink(journal.c_str());
    const struct
    {
        server::Experiment exp;
        const char *prog;
    } benches[] = {{server::Experiment::Fig7, "fig7_icache_miss"},
                   {server::Experiment::Fig8, "fig8_dcache_miss"}};
    for (const auto &b : benches) {
        Argv ckpt{b.prog, "--quick", "--sample",
                  "mode=strat,n=6,U=500,W=1000", "--ckpt-dir",
                  dir.c_str()};
        EXPECT_EXIT(benchutil::runCatalogBench(b.exp, "", ckpt.argc(),
                                               ckpt.argv(), nullptr),
                    testing::ExitedWithCode(2),
                    "unknown flag '--ckpt-dir'")
            << b.prog;
        Argv resume{b.prog, "--quick", "--resume", journal.c_str()};
        EXPECT_EXIT(benchutil::runCatalogBench(b.exp, "",
                                               resume.argc(),
                                               resume.argv(), nullptr),
                    testing::ExitedWithCode(2),
                    "unknown flag '--resume'")
            << b.prog;
    }
    struct stat st;
    EXPECT_NE(::stat(dir.c_str(), &st), 0);
    EXPECT_NE(::stat(journal.c_str(), &st), 0);
}

TEST(BenchUtilDeathTest, MalformedSamplePlanIsUsageError)
{
    // The text mw-server answers with bad_param exits 2, not abort.
    Argv a{"fig8_dcache_miss", "--quick", "--sample", "garbage"};
    EXPECT_EXIT(benchutil::runCatalogBench(server::Experiment::Fig8, "",
                                           a.argc(), a.argv(), nullptr),
                testing::ExitedWithCode(2),
                "--sample: malformed item 'garbage'");
}

TEST(BenchUtil, SplitListBasic)
{
    const auto parts = benchutil::splitList("1,2,3");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "1");
    EXPECT_EQ(parts[1], "2");
    EXPECT_EQ(parts[2], "3");
}

TEST(BenchUtil, SplitListSingleAndEmpty)
{
    EXPECT_EQ(benchutil::splitList("solo"),
              (std::vector<std::string>{"solo"}));
    EXPECT_EQ(benchutil::splitList(""),
              (std::vector<std::string>{""}));
    EXPECT_EQ(benchutil::splitList("a,,b"),
              (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(benchutil::splitList("a,"),
              (std::vector<std::string>{"a", ""}));
}

TEST(BenchUtil, ParseU64List)
{
    EXPECT_EQ(benchutil::parseU64List("0,777,0x10", "--reseeds",
                                      "bench", {"--reseeds"}),
              (std::vector<std::uint64_t>{0, 777, 16}));
}

TEST(BenchUtil, ParseDoubleList)
{
    const auto vals = benchutil::parseDoubleList("0,1e-6,2.5", "--rates",
                                                 "bench", {"--rates"});
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_DOUBLE_EQ(vals[0], 0.0);
    EXPECT_DOUBLE_EQ(vals[1], 1e-6);
    EXPECT_DOUBLE_EQ(vals[2], 2.5);
    EXPECT_EQ(benchutil::parseDoubleList("0,1", "--nacks", "bench",
                                         {"--nacks"}, 1.0),
              (std::vector<double>{0.0, 1.0}));
}

TEST(BenchUtilDeathTest, U64ListRejectsBadItems)
{
    // Each item parses whole: junk, an empty item and overflow used
    // to become 0 silently.
    struct Case
    {
        const char *list;
        const char *item;
    };
    for (const Case c : {Case{"x", "x"}, Case{"0,7x", "7x"},
                         Case{"1,,2", ""}, Case{"", ""}, Case{"1,", ""},
                         Case{"99999999999999999999999",
                              "99999999999999999999999"}})
        EXPECT_EXIT(benchutil::parseU64List(c.list, "--reseeds", "bench",
                                            {"--reseeds"}),
                    testing::ExitedWithCode(2),
                    std::string("invalid value '") + c.item +
                        "' for --reseeds")
            << c.list;
}

TEST(BenchUtilDeathTest, DoubleListRejectsBadItems)
{
    for (const char *item :
         {"abc", "", "-3", "1e999", "inf", "nan", "0.5x"})
        EXPECT_EXIT(benchutil::parseDoubleList(
                        std::string("0,") + item, "--rates", "bench",
                        {"--rates"}),
                    testing::ExitedWithCode(2),
                    std::string("invalid value '") + item +
                        "' for --rates")
            << item;
    // Probabilities (the fault campaign's --bers, --nacks) stop at 1.
    EXPECT_EXIT(benchutil::parseDoubleList("0.5,1.5", "--nacks", "bench",
                                           {"--nacks"}, 1.0),
                testing::ExitedWithCode(2),
                "invalid value '1\\.5' for --nacks");
}

} // namespace
