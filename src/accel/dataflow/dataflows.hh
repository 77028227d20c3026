/**
 * @file
 * The three dataflow shapes of Table I, one function each.
 *
 * A dataflow simulates one GCN layer's access stream and cycle count
 * on the substrate an EngineContext owns, in ec.mode: fast
 * (functional cache + roofline) or timing (event-driven engines).
 * Each .cc keeps its two paths as file-local functions over shared
 * set-up (views, layouts, GEMM cost, output pass); both paths take
 * their aggregation stream from the EngineContext's sweep program.
 * All per-layer state lives in the EngineContext.
 *
 * LayerEngine::run picks one with a switch on DataflowKind that has
 * no default case, so a DataflowKind value without a case fails to
 * build (-Wswitch under -Wall, an error with -DSGCN_WERROR=ON).
 * Adding a fourth dataflow is one new .cc declaring its function
 * here, one DataflowKind value and one case; its timing path is one
 * pick policy over the TimingSweep engine (timing/timing_sweep.hh).
 *
 * Every dataflow must fill result.schedule with the layer's phase
 * timeline (layer-local: cycle 0 is the layer's start, event time 0
 * of its fresh EngineContext in timing mode) and its per-tile spans,
 * such that schedule.criticalEnd() equals result.cycles: the network
 * pipeline chains these schedules across layers. LayerEngine then
 * adds the weight stream as the schedule's input-DMA prefix and
 * computes the mode-independent statistics.
 */

#ifndef SGCN_ACCEL_DATAFLOW_DATAFLOWS_HH
#define SGCN_ACCEL_DATAFLOW_DATAFLOWS_HH

#include "accel/engine_context.hh"
#include "accel/result.hh"

namespace sgcn
{

/** Aggregation-first row product (SGCN, GCNAX, HyGCN, EnGN, I-GCN
 *  intermediate layers): sweep A.X^l per destination tile, then feed
 *  the tile into the combination systolic arrays, with the two
 *  phases pipelined at block granularity (agg_first.cc). */
void runAggFirst(EngineContext &ec, LayerResult &result);

/** Combination-first row product: X^l . W^l as one streaming GEMM
 *  pass into the psum region, then the aggregation sweep over the
 *  dense X.W matrix and the output pass. Also every row-product
 *  personality's input layer, where combination-first is
 *  universally better because the width shrinks, SIII-A
 *  (comb_first.cc). */
void runCombFirst(EngineContext &ec, LayerResult &result);

/** Column product (AWB-GCN): input feature rows stream in source
 *  order with zero-skipping in the datapath; every out-edge
 *  read-modify-writes the destination's partial-sum strip in the
 *  distributed accumulator banks, the dominating traffic of Fig. 14
 *  (column_product.cc). */
void runColumnProduct(EngineContext &ec, LayerResult &result);

} // namespace sgcn

#endif // SGCN_ACCEL_DATAFLOW_DATAFLOWS_HH
