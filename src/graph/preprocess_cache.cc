#include "graph/preprocess_cache.hh"

#include "graph/reorder.hh"

namespace sgcn
{

PreprocessCache &
PreprocessCache::instance()
{
    static PreprocessCache cache;
    return cache;
}

std::shared_ptr<const CsrGraph>
PreprocessCache::islandized(const CsrGraph &graph)
{
    return cache.lookup(
        graph.contentFingerprint(),
        [&] {
            return std::make_shared<const CsrGraph>(
                graph.permuted(bfsIslandOrder(graph, 0), 0));
        },
        [](const CsrGraph &reordered) {
            return reordered.footprintBytes();
        });
}

} // namespace sgcn
