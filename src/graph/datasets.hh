/**
 * @file
 * The nine evaluation datasets of Table II, as synthetic stand-ins.
 *
 * We do not ship the original graph files; instead each dataset is
 * described by the statistics that determine accelerator behaviour
 * (vertex/edge counts, input feature width and sparsity, trained
 * 28-layer intermediate feature sparsity, community locality, degree
 * skew) and instantiated with the clustered generator. These are the
 * statistics the accelerator models read (aggregation work follows
 * the degrees, cache reuse the community locality, feature traffic
 * the widths and sparsities), so matching them preserves the paper's
 * evaluation shape. Vertex counts are capped for simulation scale;
 * the cap rises with the --scale flag.
 */

#ifndef SGCN_GRAPH_DATASETS_HH
#define SGCN_GRAPH_DATASETS_HH

#include <string>
#include <vector>

#include "graph/csr_graph.hh"
#include "graph/generators.hh"
#include "sim/error.hh"

namespace sgcn
{

/** Static description of one Table II dataset. */
struct DatasetSpec
{
    const char *name;
    const char *abbrev;

    /** Full-size vertex count (Table II). */
    VertexId fullVertices;

    /** Full-size directed edge count (Table II). */
    EdgeId fullEdges;

    /** Input feature width (Table II). */
    unsigned inputFeatures;

    /** Average intermediate feature sparsity of the trained
     *  28-layer residual GCN (Table II), as a fraction. */
    double featureSparsity28;

    /** Fraction of zeros in the input features X^1. */
    double inputSparsity;

    /** True if X^1 rows are one-hot (NELL). */
    bool oneHotInput;

    /** Paper-reported 28-layer accuracy (documentation only). */
    double paperAccuracy;

    /** Generator shape: fraction of diagonal-local edges. */
    double localityFraction;

    /** Generator shape: fraction of hub-attached edges. */
    double hubFraction;

    /** Mean local-edge distance as a fraction of vertex count. */
    double localityDistanceFraction;

    /** Average-degree cap applied when scaling down (Reddit). */
    double degreeCap;

    /**
     * True for synth:<N> specs: the vertex count is NOT capped by
     * --scale (the point is million-node runs), and generation uses
     * the chunked parallel RNG protocol instead of the frozen legacy
     * stream. Defaulted so the Table II positional initializers stay
     * untouched.
     */
    bool synthetic = false;

    /** Full-size average directed degree. */
    double
    fullAvgDegree() const
    {
        return static_cast<double>(fullEdges) /
               static_cast<double>(fullVertices);
    }
};

/** An instantiated (scaled) dataset. */
struct Dataset
{
    DatasetSpec spec;
    CsrGraph graph;

    /** Input feature width after scaling (NELL's 61278 is capped). */
    unsigned inputWidth;

    /** scaled vertices / full vertices. */
    double vertexScale;

    /** Wall time spent generating + building the graph, for the
     *  bench banner and sgcn_sim's dataset line. */
    double buildMillis = 0.0;
};

/** All nine datasets in Table II order (CR CS PM NL RD FK YP DB GH). */
const std::vector<DatasetSpec> &allDatasets();

/** The nine datasets sorted by increasing 28-layer feature sparsity,
 *  the order Fig. 3 uses (GH FK NL RD DB YP CR CS PM). */
std::vector<DatasetSpec> datasetsBySparsity();

/**
 * Lookup by abbreviation ("CR", "RD", ...); fatal on miss.
 *
 * Also accepts on-the-fly synthetic specs "synth:<N>[:deg<D>]" with
 * k/M count suffixes — e.g. "synth:200k", "synth:1M:deg12" — which
 * describe an uncapped clustered graph of N vertices and average
 * directed degree D (default 8). Returned by value: synthetic specs
 * are minted on demand (their strings are interned, so the
 * const char* fields stay valid for the process lifetime).
 */
DatasetSpec datasetByAbbrev(const std::string &abbrev);

/** datasetByAbbrev with a typed error (NotFound/ParseError) instead
 *  of the fatal exit. */
Expected<DatasetSpec> tryDatasetByAbbrev(const std::string &abbrev);

/**
 * Build the synthetic stand-in graph.
 *
 * @param spec dataset description
 * @param scale workload scale factor (1.0 = default caps)
 * @param seed_offset perturbs the generator seed for replicates
 */
Dataset instantiateDataset(const DatasetSpec &spec, double scale = 1.0,
                           std::uint64_t seed_offset = 0);

/** Default vertex cap at scale 1.0. */
constexpr VertexId kDatasetVertexCap = 16384;

/** Input feature width cap at scale 1.0 (NELL). */
constexpr unsigned kInputWidthCap = 4096;

} // namespace sgcn

#endif // SGCN_GRAPH_DATASETS_HH
