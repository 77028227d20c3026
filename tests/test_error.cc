/**
 * @file
 * The recoverable-error layer (Expected/Status) and every library
 * path converted from fatal() to typed errors: the edge-list loader
 * fed crafted corrupt fixtures, synth-spec parsing, name lookups,
 * and the exit-code contract of sgcn_sim and
 * the bench harnesses (carries the "corrupt" ctest label; the
 * ASan+UBSan CI job runs exactly this label over the malformed-input
 * fixtures).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "accel/interconnect/link.hh"
#include "accel/personalities.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "sim/error.hh"

namespace sgcn
{
namespace
{

/** Self-deleting scratch path. */
struct TempFile
{
    std::string path;

    explicit TempFile(const char *suffix)
        : path("/tmp/sgcn_err_" + std::to_string(::getpid()) + suffix)
    {
    }

    ~TempFile() { std::remove(path.c_str()); }

    void
    writeText(const std::string &text) const
    {
        std::ofstream out(path);
        out << text;
    }
};

// --------------------------------------------------------------
// Expected / Status semantics
// --------------------------------------------------------------

TEST(ExpectedT, CarriesAValueOrAnError)
{
    Expected<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(std::move(good).orFatal(), 42);

    Expected<int> bad(makeError(ErrorCode::NotFound, "no ", 7));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::NotFound);
    EXPECT_EQ(bad.error().message, "no 7");
}

TEST(StatusT, DefaultsToSuccess)
{
    EXPECT_TRUE(Status::success().ok());
    Status failed(makeError(ErrorCode::IoError, "disk on fire"));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, ErrorCode::IoError);
    EXPECT_STREQ(errorCodeName(failed.error().code), "io-error");
}

// --------------------------------------------------------------
// Edge-list loader
// --------------------------------------------------------------

TEST(EdgeListLoader, MissingFileIsAnIoError)
{
    Expected<CsrGraph> loaded =
        loadEdgeList("/nonexistent/sgcn_nowhere.el");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::IoError);
}

TEST(EdgeListLoader, MalformedLineNamesTheOffendingLine)
{
    TempFile file(".el");
    file.writeText("# comment\n0 1\n1 banana\n");
    Expected<CsrGraph> loaded = loadEdgeList(file.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData);
    // Line numbers count comments, so the bad row is line 3.
    EXPECT_NE(loaded.error().message.find(":3"), std::string::npos)
        << loaded.error().message;
}

TEST(EdgeListLoader, VertexBeyondDeclaredCountIsCorruptData)
{
    TempFile file(".el");
    file.writeText("0 1\n1 99\n");
    Expected<CsrGraph> loaded =
        loadEdgeList(file.path, /*num_vertices=*/10);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData);
}

TEST(EdgeListLoader, IdBeyondTheVertexIdRangeIsCorruptData)
{
    // 4294967298 used to wrap to 2 and load as a 3-vertex graph;
    // 2^32 - 1 is rejected too, because max id + 1 must fit.
    for (const char *id : {"4294967298", "4294967295"}) {
        TempFile file(".el");
        file.writeText(std::string("0 1\n1 ") + id + "\n");
        Expected<CsrGraph> loaded = loadEdgeList(file.path);
        ASSERT_FALSE(loaded.ok()) << id;
        EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData) << id;
        EXPECT_NE(loaded.error().message.find(file.path + ":2"),
                  std::string::npos)
            << loaded.error().message;
    }
}

TEST(EdgeListLoader, NegativeIdIsCorruptData)
{
    // -3 used to wrap to about 4.3 G and size a graph that large.
    TempFile file(".el");
    file.writeText("0 1\n1 -3\n");
    Expected<CsrGraph> loaded = loadEdgeList(file.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData);
    EXPECT_NE(loaded.error().message.find(file.path + ":2"),
              std::string::npos)
        << loaded.error().message;
}

TEST(EdgeListLoader, NoEdgesIsCorruptData)
{
    // Comments and blank lines only, and no declared count: there
    // is no vertex to load.
    TempFile file(".el");
    file.writeText("# only a comment\n\n% another\n");
    Expected<CsrGraph> loaded = loadEdgeList(file.path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::CorruptData);
    EXPECT_NE(loaded.error().message.find(file.path), std::string::npos)
        << loaded.error().message;

    // A declared count still gives that many isolated vertices.
    Expected<CsrGraph> declared =
        loadEdgeList(file.path, /*num_vertices=*/4);
    ASSERT_TRUE(declared.ok());
    EXPECT_EQ(declared.value().numVertices(), 4u);
    EXPECT_EQ(declared.value().numEdgesNoSelfLoops(), 0u);
}

TEST(EdgeListLoader, RoundTripsThroughSave)
{
    const CsrGraph graph =
        clusteredGraph({.vertices = 32, .avgDegree = 3.0, .seed = 11});
    TempFile file(".el");
    ASSERT_TRUE(saveEdgeList(graph, file.path).ok());
    Expected<CsrGraph> loaded =
        loadEdgeList(file.path, graph.numVertices());
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().numVertices(), graph.numVertices());
    EXPECT_EQ(loaded.value().numEdges(), graph.numEdges());
}

TEST(EdgeListSaver, UnwritablePathIsAnIoError)
{
    Status saved = saveEdgeList(
        clusteredGraph({.vertices = 8, .avgDegree = 2.0}),
        "/nonexistent/dir/x.el");
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.error().code, ErrorCode::IoError);
}

// --------------------------------------------------------------
// Name lookups and spec parsing
// --------------------------------------------------------------

TEST(Lookups, BadSynthSpecsAreParseErrors)
{
    for (const char *bad :
         {"synth:", "synth:0", "synth:1", "synth:abc", "synth:2q",
          "synth:2k:deg", "synth:2k:deg0", "synth:2k:degx",
          "synth:2k:speed9"}) {
        Expected<DatasetSpec> spec = tryDatasetByAbbrev(bad);
        ASSERT_FALSE(spec.ok()) << bad;
        EXPECT_EQ(spec.error().code, ErrorCode::ParseError) << bad;
    }
    EXPECT_TRUE(tryDatasetByAbbrev("synth:2k:deg12").ok());
}

TEST(Lookups, UnknownDatasetIsNotFound)
{
    Expected<DatasetSpec> spec = tryDatasetByAbbrev("ZZ");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, ErrorCode::NotFound);
    EXPECT_TRUE(tryDatasetByAbbrev("CR").ok());
}

TEST(Lookups, UnknownPartitionPolicyIsNotFound)
{
    Expected<PartitionPolicy> policy =
        tryPartitionPolicyByName("bogus");
    ASSERT_FALSE(policy.ok());
    EXPECT_EQ(policy.error().code, ErrorCode::NotFound);
    EXPECT_TRUE(tryPartitionPolicyByName("edge").ok());
}

TEST(Lookups, UnknownLinkPresetIsNotFound)
{
    Expected<LinkConfig> link = tryLinkByName("bogus");
    ASSERT_FALSE(link.ok());
    EXPECT_EQ(link.error().code, ErrorCode::NotFound);
    EXPECT_TRUE(tryLinkByName("noc").ok());
}

TEST(Lookups, UnknownPersonalityIsNotFoundAndListsTheRoster)
{
    Expected<AccelConfig> config = tryPersonalityByName("bogus");
    ASSERT_FALSE(config.ok());
    EXPECT_EQ(config.error().code, ErrorCode::NotFound);
    EXPECT_NE(config.error().message.find("SGCN"), std::string::npos);
    EXPECT_TRUE(tryPersonalityByName("SGCN").ok());
}

// --------------------------------------------------------------
// Exit codes: 2 for a usage error, 1 for a bad value
// --------------------------------------------------------------

/** Run ./@p binary (cwd = build dir under ctest); -1 when it is not
 *  where ctest puts it (manual runs from elsewhere). */
int
runBinary(const std::string &binary, const std::string &args)
{
    if (!std::ifstream("./" + binary).good())
        return -1;
    const std::string cmd =
        "./" + binary + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -2;
}

int
runSim(const std::string &args)
{
    return runBinary("sgcn_sim", args);
}

TEST(SimCli, ExitCodesDistinguishUsageFromRuntimeErrors)
{
    const int probe = runSim("datasets");
    if (probe == -1)
        GTEST_SKIP() << "sgcn_sim binary not in the working directory";
    EXPECT_EQ(probe, 0);

    // Unknown flags and commands are usage errors: exit 2.
    EXPECT_EQ(runSim("datasets --chps 4"), 2);
    EXPECT_EQ(runSim("frobnicate"), 2);
    EXPECT_EQ(runSim(""), 2);

    // Bad flag values exit 1, before any dataset is built (these
    // used to run a wrong configuration, panic or trap).
    EXPECT_EQ(runSim("datasets --scale banana"), 1);
    for (const char *args :
         {"run --chips -1", "run --sampled -2", "run --dram ddr4",
          "run --layers 1", "run --sampled 0", "run --cache-kb 0",
          "run --hidden 0", "run --scale 0", "run --engines 0",
          "run --cache-kb 100", "serve --rate -5"}) {
        EXPECT_EQ(runSim(args), 1) << args;
    }
    ASSERT_EQ(setenv("SGCN_BENCH_SCALE", "banana", 1), 0);
    EXPECT_EQ(runSim("datasets"), 1);
    unsetenv("SGCN_BENCH_SCALE");

    // A short write is a runtime error too, not a "wrote PATH"; so is
    // a fault at a layer past the network's depth.
    for (const char *args :
         {"run --dataset CR --accels SGCN --scale 0.08 --csv /dev/full",
          "run --dataset CR --accels SGCN --scale 0.08 "
          "--export-schedule /dev/full",
          "generate --dataset CR --scale 0.08 --out /dev/full",
          "run --dataset CR --accels SGCN --scale 0.08 --chips 2 "
          "--jobs 1 --faults chip-fail:chip1@layer28"}) {
        EXPECT_EQ(runSim(args), 1) << args;
    }
}

TEST(BenchCli, ExitCodesDistinguishUsageFromBadValues)
{
    const int probe = runBinary("fig12_ablation", "--bogus-flag 3");
    if (probe == -1)
        GTEST_SKIP() << "fig12_ablation not in the working directory";
    EXPECT_EQ(probe, 2);
    EXPECT_EQ(runBinary("fig12_ablation", "--mode timng"), 1);
    EXPECT_EQ(runBinary("fig12_ablation", "--chips -1"), 1);
}

} // namespace
} // namespace sgcn
