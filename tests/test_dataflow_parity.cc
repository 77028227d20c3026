/**
 * @file
 * Parity tests for the dataflow-strategy layer.
 *
 * The fast-path golden values below were captured from the
 * pre-refactor monolithic LayerEngine on the small Cora fixture
 * (instantiateDataset("CR", 0.1), default NetworkSpec, intermediate
 * layer 1), and the strategy architecture reproduced them
 * bit-identically when it landed. They pin the access streams of all
 * three dataflows: a change here means the simulated traffic or MAC
 * counts moved, which must be an intentional model change, not a
 * refactoring accident.
 *
 * The goldens were captured under glibc's default libm rounding;
 * other platforms may round a handful of slice populations the other
 * way, so each count is checked against a tight band (0.2% relative,
 * two-count absolute floor) rather than exact equality. Zero stays
 * exactly zero: phantom partial-sum traffic is a real bug, not
 * rounding.
 *
 * The timing-mode assertions: both modes consume one sweep program
 * per tile, so they issue the same topology, output and partial-sum
 * line streams and the same MACs exactly, and the same cache
 * requests once the timing cache never parks one. Total off-chip
 * traffic agrees within the eviction-order tolerance of
 * test_accel.cc (15%); single-layer cycle counts agree within a
 * loose factor (the fast roofline has no warm-up or queueing
 * effects, so per-layer gaps run larger than the network-level
 * speedup agreement).
 *
 * The timing pins below fix every field of a timing-mode layer
 * exactly, phase spans and tile spans included: the cross-mode
 * checks above cannot see when an event moves. They run every
 * personality's input layer and layer 1 on the Cora fixture, and
 * the row-product personalities again at 128-row destination tiles,
 * where a layer makes enough tiles (at least kMinTileSpans) that
 * its schedule carries the observed per-tile windows, not the
 * uniform fallback.
 *
 * The fast pins fix the same fields of every personality's fast-mode
 * input layer and layer 1 on CR, CS and PM at scale 0.08, where the
 * goldens above only keep a band. Their variants sit on both sides
 * of the lockstep rule (Cache::lockstep), under which a dense sweep
 * reads one line per row per source-tile pass and counts it for the
 * row's lines: FIFO and SRRIP pass it and Random fails it, hidden
 * widths 64, 250 and 512 pass and 100 (7-line rows) fails, a 128 KB
 * cache passes, and so do AWB-GCN's equal 64-feature strips, while
 * its 96-feature strips (6, 6 and 4 lines) and GCNAX's 24-feature
 * slices, which start inside a line, keep the per-line path. At
 * hidden 250 a row is 1,000 bytes padded to 16 lines, so those rows
 * pin the row's line count to its padded stride, not width * 4 / 64.
 * The values were captured before the rule existed, and the hidden
 * 250 rows before the rule was lifted from slices to rows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <string_view>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "fixtures.hh"

namespace sgcn
{
namespace
{

/** Golden fast-path counts of one dataflow on the Cora fixture. */
struct GoldenLayer
{
    std::uint64_t topologyRead;
    std::uint64_t featureInRead;
    std::uint64_t featureOutWrite;
    std::uint64_t weightRead;
    std::uint64_t psumRead;
    std::uint64_t psumWrite;
    std::uint64_t macs;
    Cycle aggCycles;
    Cycle combCycles;
    Cycle cycles;
};

constexpr GoldenLayer kGoldenAggFirst = {
    2433, 40082, 39901, 4096, 0, 0, 108210433, 9005, 16536, 18685};
constexpr GoldenLayer kGoldenCombFirst = {
    2818, 73026, 39901, 4096, 0, 26208, 109387264, 17792, 33063, 37417};
constexpr GoldenLayer kGoldenColumnProduct = {
    2433, 52416, 52416, 4096, 26208, 0, 47746048, 26816, 8892, 28951};

/** Exact counts of one layer of a fixture dataset in one mode. The
 *  variant changes the personality or the network (applyVariant); the
 *  digest covers the per-class lines, the retries, bwUtil and the
 *  whole schedule (layerDigest). */
struct LayerPin
{
    ExecutionMode mode;
    const char *dataset;
    const char *accel;
    const char *variant;
    bool inputLayer;
    Cycle cycles;
    Cycle aggCycles;
    Cycle combCycles;
    std::uint64_t cacheAccesses;
    std::uint64_t cacheHits;
    std::uint64_t macs;
    std::uint64_t digest;
};

/** Timing-mode layers on the Cora fixture at scale 0.1. */
constexpr LayerPin kTimingPins[] = {
    {ExecutionMode::Timing, "CR", "GCNAX", "", true, 81398, 36934, 24492,
     128407, 62625, 173544448, 0xea42f9a851b5ad05ull},
    {ExecutionMode::Timing, "CR", "GCNAX", "", false, 81961, 36921, 16536,
     128357, 62394, 109387264, 0xe61ce8186935c9e9ull},
    {ExecutionMode::Timing, "CR", "HyGCN", "", true, 97349, 52885, 24492,
     128583, 47175, 173544448, 0x0eeaaec49555356dull},
    {ExecutionMode::Timing, "CR", "HyGCN", "", false, 97869, 52829, 16536,
     128668, 47306, 109387264, 0x888b8ef7e3743d25ull},
    {ExecutionMode::Timing, "CR", "AWB-GCN", "", true, 29259, 16493, 3536,
     258502, 192728, 4555264, 0xaec89913b42ddcdfull},
    {ExecutionMode::Timing, "CR", "AWB-GCN", "", false, 30117, 16493, 8892,
     258502, 192730, 47746048, 0xb21e5cdc8b8ee32aull},
    {ExecutionMode::Timing, "CR", "EnGN", "", true, 94073, 49609, 24492,
     128422, 52308, 173544448, 0xe6108657f0d023b5ull},
    {ExecutionMode::Timing, "CR", "EnGN", "", false, 97869, 52829, 16536,
     128668, 47306, 109387264, 0x888b8ef7e3743d25ull},
    {ExecutionMode::Timing, "CR", "I-GCN", "", true, 81398, 36934, 24492,
     128407, 62625, 173544448, 0xea42f9a851b5ad05ull},
    {ExecutionMode::Timing, "CR", "I-GCN", "", false, 81961, 36921, 16536,
     128357, 62394, 109387264, 0xe61ce8186935c9e9ull},
    {ExecutionMode::Timing, "CR", "SGCN", "", true, 51655, 24146, 10828,
     127787, 80410, 4555264, 0x783da51b4e5d1cf1ull},
    {ExecutionMode::Timing, "CR", "SGCN", "", false, 50993, 9194, 16536,
     67488, 49345, 108210433, 0x4f7185dedf25cd51ull},
    {ExecutionMode::Timing, "CR", "GCNAX", "tile128", true, 54824, 27258,
     24492, 127625, 79277, 173544448, 0x40a7f966377d5511ull},
    {ExecutionMode::Timing, "CR", "GCNAX", "tile128", false, 34548, 29498,
     16536, 127620, 79181, 109387264, 0x481fed1d7086fdb0ull},
    {ExecutionMode::Timing, "CR", "HyGCN", "tile128", true, 56530, 28898,
     24492, 127798, 79351, 173544448, 0xbfea3c22c51f5d71ull},
    {ExecutionMode::Timing, "CR", "HyGCN", "tile128", false, 36192, 31434,
     16536, 127780, 79469, 109387264, 0x78b94c5713b4fee6ull},
    {ExecutionMode::Timing, "CR", "EnGN", "tile128", true, 55660, 27989,
     24492, 127760, 81581, 173544448, 0xaf0f5766c589892cull},
    {ExecutionMode::Timing, "CR", "EnGN", "tile128", false, 36192, 31434,
     16536, 127780, 79469, 109387264, 0x78b94c5713b4fee6ull},
    {ExecutionMode::Timing, "CR", "I-GCN", "tile128", true, 54824, 27258,
     24492, 127625, 79277, 173544448, 0x40a7f966377d5511ull},
    {ExecutionMode::Timing, "CR", "I-GCN", "tile128", false, 34548, 29498,
     16536, 127620, 79181, 109387264, 0x481fed1d7086fdb0ull},
    {ExecutionMode::Timing, "CR", "SGCN", "tile128", true, 50143, 36703,
     10828, 127456, 87391, 4555264, 0x256f959af183a881ull},
    {ExecutionMode::Timing, "CR", "SGCN", "tile128", false, 25114, 20732,
     16536, 67488, 47534, 108210433, 0x2eb00b29c2bfba29ull},
    {ExecutionMode::Timing, "CR", "GCNAX", "retry", true, 86157, 41083,
     24588, 128364, 62238, 173544448, 0x13786933653f2b88ull},
    {ExecutionMode::Timing, "CR", "GCNAX", "retry", false, 86797, 40977,
     16536, 128354, 62527, 109387264, 0x00844015cb3ec81full},
    {ExecutionMode::Timing, "CR", "AWB-GCN", "retry", true, 30955, 16648,
     3536, 259874, 190666, 4555264, 0xf311485cfaf0fed1ull},
    {ExecutionMode::Timing, "CR", "AWB-GCN", "retry", false, 32330, 16648,
     8892, 259874, 190666, 47746048, 0xc05e556cdd813261ull},
    {ExecutionMode::Timing, "CR", "SGCN", "retry", true, 54522, 26338,
     11256, 127815, 80227, 4555264, 0x9d96d0f7a1004140ull},
    {ExecutionMode::Timing, "CR", "SGCN", "retry", false, 51698, 9248,
     16536, 67488, 49093, 108210433, 0x3bff5a9c6eb3d83aull},
};

/** Fast-mode layers on the CR, CS and PM fixtures at scale 0.08. */
constexpr LayerPin kFastPins[] = {
    {ExecutionMode::Fast, "CR", "GCNAX", "", true, 33749, 15182, 26429,
     101984, 43232, 111294464, 0xf875c6222f08d5bbull},
    {ExecutionMode::Fast, "CR", "GCNAX", "", false, 18641, 15182, 15720,
     101984, 43232, 87483904, 0x85f841a08279f633ull},
    {ExecutionMode::Fast, "CR", "HyGCN", "", true, 33893, 15326, 26429,
     101984, 42608, 111294464, 0x2ec3c8a4f0ed08c6ull},
    {ExecutionMode::Fast, "CR", "HyGCN", "", false, 18659, 15326, 15720,
     101984, 42608, 87483904, 0xa31a2e798053a120ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "", true, 18369, 16202, 6877,
     203968, 183008, 3308544, 0x7c3c1b4151cf53b9ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "", false, 23342, 21442, 7011,
     203968, 183008, 38185984, 0x7ea9767fc20cccefull},
    {ExecutionMode::Fast, "CR", "EnGN", "", true, 32881, 14314, 26429, 101984,
     46656, 111294464, 0xb3d5c44e268014eeull},
    {ExecutionMode::Fast, "CR", "EnGN", "", false, 18533, 14314, 15720,
     101984, 46656, 87483904, 0xfd591a4137de107cull},
    {ExecutionMode::Fast, "CR", "I-GCN", "", true, 33749, 15182, 26429,
     101984, 43232, 111294464, 0xf875c6222f08d5bbull},
    {ExecutionMode::Fast, "CR", "I-GCN", "", false, 18641, 15182, 15720,
     101984, 43232, 87483904, 0x85f841a08279f633ull},
    {ExecutionMode::Fast, "CR", "SGCN", "", true, 24029, 15680, 14054, 101984,
     72800, 3308544, 0xc7c598f71d1e1eb3ull},
    {ExecutionMode::Fast, "CR", "SGCN", "", false, 15228, 7942, 13212, 54031,
     42935, 86542209, 0x6ffe116d4890c3eaull},
    {ExecutionMode::Fast, "CS", "GCNAX", "", true, 30981, 12414, 26429, 78080,
     30224, 110912000, 0xc79f3db4990eaa00ull},
    {ExecutionMode::Fast, "CS", "GCNAX", "", false, 18295, 12414, 15720,
     78080, 30224, 87101440, 0x44065cecf3cfb084ull},
    {ExecutionMode::Fast, "CS", "HyGCN", "", true, 31149, 12582, 26429, 78080,
     29504, 110912000, 0x624acf6caf811efcull},
    {ExecutionMode::Fast, "CS", "HyGCN", "", false, 18316, 12582, 15720,
     78080, 29504, 87101440, 0xdcca2b50f5fe6c4cull},
    {ExecutionMode::Fast, "CS", "AWB-GCN", "", true, 18325, 16158, 6877,
     156160, 135200, 2255360, 0x0c7857c188735a26ull},
    {ExecutionMode::Fast, "CS", "AWB-GCN", "", false, 23262, 21398, 6724,
     156160, 135200, 35456000, 0xc36f9a5152d80403ull},
    {ExecutionMode::Fast, "CS", "EnGN", "", true, 30117, 11550, 26429, 78080,
     33632, 110912000, 0xdc9d8b7b9ad41508ull},
    {ExecutionMode::Fast, "CS", "EnGN", "", false, 18187, 11550, 15720, 78080,
     33632, 87101440, 0xdbd4018504bda8f1ull},
    {ExecutionMode::Fast, "CS", "I-GCN", "", true, 30981, 12414, 26429, 78080,
     30224, 110912000, 0xc79f3db4990eaa00ull},
    {ExecutionMode::Fast, "CS", "I-GCN", "", false, 18295, 12414, 15720,
     78080, 30224, 87101440, 0x44065cecf3cfb084ull},
    {ExecutionMode::Fast, "CS", "SGCN", "", true, 19679, 11408, 13889, 78080,
     49664, 2255360, 0x0956e19d45aed9c7ull},
    {ExecutionMode::Fast, "CS", "SGCN", "", false, 14812, 5588, 13090, 39853,
     29153, 86350887, 0x525ee90b26474122ull},
    {ExecutionMode::Fast, "PM", "GCNAX", "", true, 37066, 18499, 26429,
     114944, 43056, 111501824, 0xc65a8f33c8593bbbull},
    {ExecutionMode::Fast, "PM", "GCNAX", "", false, 21488, 18499, 15720,
     114944, 43056, 87691264, 0xce5b97f2e5d4290dull},
    {ExecutionMode::Fast, "PM", "HyGCN", "", true, 37273, 18706, 26429,
     114944, 42176, 111501824, 0xebe650e903cd39d0ull},
    {ExecutionMode::Fast, "PM", "HyGCN", "", false, 21695, 18706, 15720,
     114944, 42176, 87691264, 0x9e1921cbe0088762ull},
    {ExecutionMode::Fast, "PM", "AWB-GCN", "", true, 18401, 16234, 6877,
     229888, 208928, 12905984, 0x36db6a023fc80d23ull},
    {ExecutionMode::Fast, "PM", "AWB-GCN", "", false, 23328, 21474, 6642,
     229888, 208928, 35375104, 0x8b52b75e76bab27full},
    {ExecutionMode::Fast, "PM", "EnGN", "", true, 35825, 17258, 26429, 114944,
     47968, 111501824, 0x373233f6c1a2078dull},
    {ExecutionMode::Fast, "PM", "EnGN", "", false, 20247, 17258, 15720,
     114944, 47968, 87691264, 0x40e471cea3ef8878ull},
    {ExecutionMode::Fast, "PM", "I-GCN", "", true, 37066, 18499, 26429,
     114944, 43056, 111501824, 0xc65a8f33c8593bbbull},
    {ExecutionMode::Fast, "PM", "I-GCN", "", false, 21488, 18499, 15720,
     114944, 43056, 87691264, 0xce5b97f2e5d4290dull},
    {ExecutionMode::Fast, "PM", "SGCN", "", true, 35537, 17296, 23822, 114944,
     51968, 111501824, 0xa94f43e31414c04cull},
    {ExecutionMode::Fast, "PM", "SGCN", "", false, 15120, 8297, 13059, 57710,
     47176, 86563702, 0xd816dbbfb1a49a6aull},
    {ExecutionMode::Fast, "CR", "GCNAX", "FIFO", true, 33793, 15226, 26429,
     101984, 43056, 111294464, 0x5bfe9fd026828fe7ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "FIFO", false, 18647, 15226, 15720,
     101984, 43056, 87483904, 0xa784dfa28f67acf6ull},
    {ExecutionMode::Fast, "CR", "EnGN", "FIFO", true, 32797, 14230, 26429,
     101984, 46992, 111294464, 0x94731832a9231e57ull},
    {ExecutionMode::Fast, "CR", "EnGN", "FIFO", false, 18522, 14230, 15720,
     101984, 46992, 87483904, 0x6be524bd7ec6de5bull},
    {ExecutionMode::Fast, "CR", "GCNAX", "SRRIP", true, 33977, 15410, 26429,
     101984, 42320, 111294464, 0x59657e4dae214939ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "SRRIP", false, 18670, 15410, 15720,
     101984, 42320, 87483904, 0x19d13af1b7cbec34ull},
    {ExecutionMode::Fast, "CR", "EnGN", "SRRIP", true, 33061, 14494, 26429,
     101984, 45936, 111294464, 0x98308f3ee52ff1f0ull},
    {ExecutionMode::Fast, "CR", "EnGN", "SRRIP", false, 18555, 14494, 15720,
     101984, 45936, 87483904, 0x48fb2c9a87bf716eull},
    {ExecutionMode::Fast, "CR", "GCNAX", "Random", true, 34150, 15583, 26429,
     101984, 41629, 111294464, 0x9c6701b24b650c14ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "Random", false, 18691, 15583, 15720,
     101984, 41629, 87483904, 0x8673050f7d52e0edull},
    {ExecutionMode::Fast, "CR", "EnGN", "Random", true, 33096, 14529, 26429,
     101984, 45798, 111294464, 0xb02cfc024f091160ull},
    {ExecutionMode::Fast, "CR", "EnGN", "Random", false, 18560, 14529, 15720,
     101984, 45798, 87483904, 0x8ad606223722650full},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden64", true, 12273, 3432, 10807,
     25496, 20256, 27823616, 0xc2d161c0bbfcfcaeull},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden64", false, 4423, 3432, 3930,
     25496, 20256, 5773696, 0x295613703b61f7beull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "hidden64", true, 7755, 4412, 6877,
     50992, 45752, 827136, 0x547bd36484f787a6ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "hidden64", false, 5949, 5722,
     1310, 50992, 45752, 2755456, 0xf033a720b3a07d25ull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden64", true, 12273, 3432, 10807,
     25496, 22304, 27823616, 0xc2d161c0bbfcfcaeull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden64", false, 4423, 3432, 3930,
     25496, 22304, 5773696, 0x295613703b61f7beull},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden100", true, 16260, 6006,
     13755, 44618, 35448, 43474400, 0x5be17c30041942a7ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden100", false, 7783, 6006, 6877,
     44618, 35448, 13737400, 0xea6b2a52dff40f87ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "hidden100", true, 8730, 7360,
     6877, 89236, 80066, 1292400, 0x5136b399b2979866ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "hidden100", false, 10094, 9652,
     2292, 89236, 80066, 6270400, 0x2691c6dd6adad730ull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden100", true, 16260, 6006, 13755,
     44618, 37257, 43474400, 0xeb53de7fd673b157ull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden100", false, 7783, 6006, 6877,
     44618, 37257, 13737400, 0x17d4167e76abbc8full},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden250", true, 33718, 15182,
     26429, 101984, 43232, 108686000, 0xf9bd2b318593b617ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden250", false, 18593, 15182,
     15720, 101984, 43232, 83468500, 0x1028402ea86c1b1dull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden250", true, 32850, 14314,
     26429, 101984, 46656, 108686000, 0xde68680a45dd4dd4ull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden250", false, 18485, 14314,
     15720, 101984, 46656, 83468500, 0x7448df0ad72b8189ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden512", true, 76796, 39662,
     52858, 203968, 47296, 222588928, 0x8e1242c5d892a04bull},
    {ExecutionMode::Fast, "CR", "GCNAX", "hidden512", false, 56121, 39662,
     47068, 203968, 47296, 346672128, 0xa2e4870a75cd7de4ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "hidden512", true, 35397, 31922,
     6877, 407936, 366016, 6617088, 0x0195e873fb68df75ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "hidden512", false, 49357, 42402,
     22878, 407936, 366016, 148809728, 0x27ba4e172a6741c1ull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden512", true, 75848, 38714,
     52858, 203968, 51040, 222588928, 0xe53030e5c2c17145ull},
    {ExecutionMode::Fast, "CR", "EnGN", "hidden512", false, 56003, 38714,
     47068, 203968, 51040, 346672128, 0xf897b7cba537b42full},
    {ExecutionMode::Fast, "CR", "GCNAX", "cacheKb128", true, 34020, 15453,
     26429, 101984, 42928, 111294464, 0x0a98316c95f3bcedull},
    {ExecutionMode::Fast, "CR", "GCNAX", "cacheKb128", false, 18675, 15453,
     15720, 101984, 42928, 87483904, 0xc521ef0a26d53316ull},
    {ExecutionMode::Fast, "CR", "EnGN", "cacheKb128", true, 41237, 22670,
     26429, 101984, 13232, 111294464, 0xc55fd149d6930422ull},
    {ExecutionMode::Fast, "CR", "EnGN", "cacheKb128", false, 25659, 22670,
     15720, 101984, 13232, 87483904, 0xeeccad410e6a5c7aull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "slice64", true, 31024, 17650,
     27510, 203968, 183008, 3308544, 0x19c7d42833941c84ull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "slice64", false, 26534, 22890,
     20960, 203968, 183008, 38185984, 0x2cd1ff8744f997acull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "slice96", true, 24085, 17167,
     20632, 203968, 183008, 3308544, 0x632d78af525a557bull},
    {ExecutionMode::Fast, "CR", "AWB-GCN", "slice96", false, 25396, 22407,
     15720, 203968, 183008, 38185984, 0xbfcd8c615b9865bcull},
    {ExecutionMode::Fast, "CR", "GCNAX", "slice24", true, 38366, 19799, 26429,
     133854, 56588, 111294464, 0x27fdb03b9f8b9f82ull},
    {ExecutionMode::Fast, "CR", "GCNAX", "slice24", false, 22788, 19799,
     15720, 133854, 56588, 87483904, 0x2cbba820ef707f7full},
};

/** FNV-1a over the LayerResult fields a LayerPin keeps out of the
 *  clear. */
std::uint64_t
layerDigest(const LayerResult &r)
{
    std::uint64_t hash = 14695981039346656037ull;
    const auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        mix(r.traffic.readLines[c]);
        mix(r.traffic.writeLines[c]);
    }
    mix(r.dramRetries);
    std::uint64_t bw_bits = 0;
    static_assert(sizeof(bw_bits) == sizeof(r.bwUtil));
    std::memcpy(&bw_bits, &r.bwUtil, sizeof(bw_bits));
    mix(bw_bits);
    const LayerSchedule &s = r.schedule;
    for (const PhaseSpan &span :
         {s.inputDma, s.aggregation, s.combination, s.outputDrain}) {
        mix(span.start);
        mix(span.end);
    }
    mix(s.sequentialInput);
    mix(s.tileSpans.size());
    for (const TileSpan &tile : s.tileSpans) {
        mix(tile.tile);
        mix(tile.inputConsume.start);
        mix(tile.inputConsume.end);
        mix(tile.outputReady);
    }
    return hash;
}

/** Apply a LayerPin's variant to its personality and network: a
 *  replacement policy, a hidden width ("hidden64"), a global cache
 *  size ("cacheKb128"), a slice width ("slice96"), a destination
 *  tile height ("tile128") or transient DRAM retries on 10% of
 *  bursts ("retry"); "" keeps both. */
void
applyVariant(const std::string &variant, AccelConfig &config,
             NetworkSpec &net)
{
    if (variant == "FIFO") {
        config.cache.replacement = ReplacementPolicy::Fifo;
    } else if (variant == "SRRIP") {
        config.cache.replacement = ReplacementPolicy::Srrip;
    } else if (variant == "Random") {
        config.cache.replacement = ReplacementPolicy::Random;
    } else if (variant.starts_with("hidden")) {
        net.hidden = static_cast<unsigned>(std::stoul(variant.substr(6)));
    } else if (variant.starts_with("cacheKb")) {
        config.cache.sizeBytes = std::stoull(variant.substr(7)) * 1024;
    } else if (variant.starts_with("slice")) {
        config.sliceC =
            static_cast<std::uint32_t>(std::stoul(variant.substr(5)));
    } else if (variant == "retry") {
        config.dram.transientRetryProb = 0.1;
        config.dram.retrySeed = 0x5eed;
    } else if (variant.starts_with("tile")) {
        config.dstTileRows =
            static_cast<VertexId>(std::stoul(variant.substr(4)));
    } else {
        ASSERT_TRUE(variant.empty()) << "unknown variant " << variant;
    }
}

struct DataflowParity : ::testing::Test
{
    Dataset cora = testfx::cora(0.1);
    NetworkSpec net;

    /** Intermediate layer 1 of @p dataset, or its input layer when
     *  @p input_layer, in @p mode. */
    LayerResult
    runLayer(const Dataset &dataset, const AccelConfig &config,
             bool input_layer, ExecutionMode mode)
    {
        LayerContext ctx =
            input_layer
                ? makeInputLayer(dataset, dataset.graph, config, net)
                : makeIntermediateLayer(dataset, dataset.graph, config,
                                        net, 1);
        LayerEngine engine(config, ctx);
        return engine.run(mode);
    }

    LayerResult
    runLayer(const AccelConfig &config, ExecutionMode mode)
    {
        return runLayer(cora, config, false, mode);
    }

    static AccelConfig
    combFirstConfig()
    {
        return testfx::combFirstPersonality();
    }

    /** A count must sit inside the golden band: 0.2% relative with
     *  a two-count absolute floor, and exact zero for zero. */
    static void
    expectInGoldenBand(std::uint64_t actual, std::uint64_t golden,
                       const char *what)
    {
        if (golden == 0) {
            EXPECT_EQ(actual, 0u) << what;
            return;
        }
        const double tolerance = std::max(
            2.0, static_cast<double>(golden) * 0.002);
        EXPECT_NEAR(static_cast<double>(actual),
                    static_cast<double>(golden), tolerance)
            << what;
    }

    void
    expectGolden(const LayerResult &r, const GoldenLayer &g)
    {
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::Topology)],
            g.topologyRead, "topology reads");
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::FeatureIn)],
            g.featureInRead, "feature-in reads");
        expectInGoldenBand(
            r.traffic.writeLines[static_cast<unsigned>(
                TrafficClass::FeatureOut)],
            g.featureOutWrite, "feature-out writes");
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::Weight)],
            g.weightRead, "weight reads");
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::PartialSum)],
            g.psumRead, "partial-sum reads");
        expectInGoldenBand(
            r.traffic.writeLines[static_cast<unsigned>(
                TrafficClass::PartialSum)],
            g.psumWrite, "partial-sum writes");
        expectInGoldenBand(r.macs, g.macs, "MACs");
        expectInGoldenBand(r.aggCycles, g.aggCycles,
                           "aggregation cycles");
        expectInGoldenBand(r.combCycles, g.combCycles,
                           "combination cycles");
        expectInGoldenBand(r.cycles, g.cycles, "total cycles");
    }

    void
    expectModesAgree(const AccelConfig &config, const Dataset &dataset,
                     bool input_layer, double max_cycle_ratio)
    {
        const LayerResult fast =
            runLayer(dataset, config, input_layer, ExecutionMode::Fast);
        const LayerResult timing = runLayer(dataset, config, input_layer,
                                            ExecutionMode::Timing);
        // One program per tile: exactly the same MAC work and the
        // same uncached streams...
        EXPECT_EQ(fast.macs, timing.macs);
        const auto topology =
            static_cast<unsigned>(TrafficClass::Topology);
        const auto out = static_cast<unsigned>(TrafficClass::FeatureOut);
        const auto psum =
            static_cast<unsigned>(TrafficClass::PartialSum);
        EXPECT_EQ(fast.traffic.readLines[topology],
                  timing.traffic.readLines[topology]);
        EXPECT_EQ(fast.traffic.writeLines[out],
                  timing.traffic.writeLines[out]);
        EXPECT_EQ(fast.traffic.writeLines[psum],
                  timing.traffic.writeLines[psum]);
        // ...the same shared-cache requests, once the timing cache has
        // MSHRs enough never to park one (a parked request is counted
        // again when it drains, ROADMAP item 1). AWB-GCN's accumulator
        // banks take their MSHR count from no config field...
        if (config.dataflow != DataflowKind::ColumnProduct) {
            AccelConfig roomy = config;
            roomy.cache.mshrs = 1024;
            EXPECT_EQ(runLayer(dataset, roomy, input_layer,
                               ExecutionMode::Fast)
                          .cacheAccesses,
                      runLayer(dataset, roomy, input_layer,
                               ExecutionMode::Timing)
                          .cacheAccesses);
        }
        // ...and off-chip totals within the eviction-order tolerance
        // test_accel.cc uses.
        const double traffic_ratio =
            static_cast<double>(timing.traffic.totalLines()) /
            static_cast<double>(fast.traffic.totalLines());
        EXPECT_NEAR(traffic_ratio, 1.0, 0.15);
        // Single-layer cycles agree within a loose factor.
        const double cycle_ratio =
            static_cast<double>(timing.cycles) /
            static_cast<double>(fast.cycles);
        EXPECT_LT(std::abs(std::log(cycle_ratio)),
                  std::log(max_cycle_ratio));
    }

    void
    expectModesAgree(const AccelConfig &config)
    {
        expectModesAgree(config, cora, false, 4.0);
    }

    /** Run @p pin's layer on its dataset, found among @p fixtures,
     *  and expect every pinned field; a mismatch prints the actual
     *  row. */
    LayerResult
    expectPinned(const LayerPin &pin, std::span<const Dataset> fixtures)
    {
        const auto dataset = std::find_if(
            fixtures.begin(), fixtures.end(), [&](const Dataset &d) {
                return std::strcmp(d.spec.abbrev, pin.dataset) == 0;
            });
        if (dataset == fixtures.end()) {
            ADD_FAILURE() << "no fixture " << pin.dataset;
            return {};
        }
        AccelConfig config = personalityByName(pin.accel);
        net = NetworkSpec{};
        applyVariant(pin.variant, config, net);
        const LayerResult r =
            runLayer(*dataset, config, pin.inputLayer, pin.mode);
        char actual[256];
        std::snprintf(
            actual, sizeof(actual),
            "{ExecutionMode::%s, \"%s\", \"%s\", \"%s\", %s, %llu, "
            "%llu, %llu, %llu, %llu, %llu, 0x%016llxull},",
            pin.mode == ExecutionMode::Timing ? "Timing" : "Fast",
            pin.dataset, pin.accel, pin.variant,
            pin.inputLayer ? "true" : "false",
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.aggCycles),
            static_cast<unsigned long long>(r.combCycles),
            static_cast<unsigned long long>(r.cacheAccesses),
            static_cast<unsigned long long>(r.cacheHits),
            static_cast<unsigned long long>(r.macs),
            static_cast<unsigned long long>(layerDigest(r)));
        SCOPED_TRACE(actual);
        EXPECT_EQ(r.cycles, pin.cycles);
        EXPECT_EQ(r.aggCycles, pin.aggCycles);
        EXPECT_EQ(r.combCycles, pin.combCycles);
        EXPECT_EQ(r.cacheAccesses, pin.cacheAccesses);
        EXPECT_EQ(r.cacheHits, pin.cacheHits);
        EXPECT_EQ(r.macs, pin.macs);
        EXPECT_EQ(layerDigest(r), pin.digest);
        return r;
    }
};

TEST_F(DataflowParity, AggFirstFastMatchesGolden)
{
    expectGolden(runLayer(makeSgcn(), ExecutionMode::Fast),
                 kGoldenAggFirst);
}

TEST_F(DataflowParity, CombFirstFastMatchesGolden)
{
    expectGolden(runLayer(combFirstConfig(), ExecutionMode::Fast),
                 kGoldenCombFirst);
}

TEST_F(DataflowParity, ColumnProductFastMatchesGolden)
{
    expectGolden(runLayer(makeAwbGcn(), ExecutionMode::Fast),
                 kGoldenColumnProduct);
}

TEST_F(DataflowParity, AggFirstModesAgree)
{
    expectModesAgree(makeSgcn());
}

TEST_F(DataflowParity, CombFirstModesAgree)
{
    expectModesAgree(combFirstConfig());
}

TEST_F(DataflowParity, ColumnProductModesAgree)
{
    expectModesAgree(makeAwbGcn());
}

TEST_F(DataflowParity, EveryPersonalityModesAgreeOnCrCsPm)
{
    // The cycle band is wider than the Cora tests' 4x: PM's EnGN
    // intermediate layer reads 4.11x timing over fast (HyGCN's
    // 3.84x, five more layers between 3.8x and 4x), the single-layer
    // face of ROADMAP item 1's fast/timing cycle gap.
    for (const char *abbrev : {"CR", "CS", "PM"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (const AccelConfig &config : allPersonalities()) {
            for (const bool input_layer : {true, false}) {
                SCOPED_TRACE(std::string(abbrev) + " " + config.name +
                             (input_layer ? " input layer" : " layer 1"));
                expectModesAgree(config, dataset, input_layer, 4.5);
            }
        }
    }
}

TEST_F(DataflowParity, TimingLayersArePinnedExactly)
{
    std::size_t tiled = 0;
    std::size_t retried = 0;
    for (const LayerPin &pin : kTimingPins) {
        const LayerResult r = expectPinned(pin, {&cora, 1});
        if (std::string_view(pin.variant) == "tile128" &&
            r.schedule.tileSpans.size() > kMinTileSpans)
            ++tiled;
        if (std::string_view(pin.variant) == "retry" && r.dramRetries > 0)
            ++retried;
    }
    // Every personality on both layers, the five row-product
    // personalities again at 128-row tiles, and GCNAX, AWB-GCN and
    // SGCN again with DRAM retries...
    EXPECT_EQ(std::size(kTimingPins), 28u);
    // ...where every 128-row layer keeps more than the fallback's
    // spans, and every retry layer re-queues bursts.
    EXPECT_EQ(tiled, 10u);
    EXPECT_EQ(retried, 6u);
}

TEST_F(DataflowParity, FastLayersArePinnedExactly)
{
    const Dataset fixtures[] = {testfx::datasetFixture("CR"),
                                testfx::datasetFixture("CS"),
                                testfx::datasetFixture("PM")};
    for (const LayerPin &pin : kFastPins)
        expectPinned(pin, fixtures);
    // Every personality on both layers of CR, CS and PM, and the
    // variants on CR.
    EXPECT_EQ(std::size(kFastPins), 80u);
}

TEST_F(DataflowParity, InputLayerRunsCombFirst)
{
    // SIII-A: row-product personalities run their input layer
    // combination-first because the width shrinks.
    const AccelConfig config = makeSgcn();
    LayerContext input = makeInputLayer(cora, cora.graph, config, net);
    LayerEngine engine(config, input);
    EXPECT_EQ(engine.effectiveDataflow(),
              DataflowKind::CombFirstRowProduct);

    LayerContext mid =
        makeIntermediateLayer(cora, cora.graph, config, net, 1);
    LayerEngine mid_engine(config, mid);
    EXPECT_EQ(mid_engine.effectiveDataflow(),
              DataflowKind::AggFirstRowProduct);
}

} // namespace
} // namespace sgcn
