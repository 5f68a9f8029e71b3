/**
 * @file
 * The experiment catalog: the single definition of each catalogued
 * experiment's compute points.
 *
 * buildCatalogPlan() decomposes a validated RunRequest into
 * independent compute points — their order, their per-point seeds
 * and their compute calls — plus a renderer that turns the
 * completed point results into the --format=json document. Both
 * mw-server and the one-shot bench binaries (bench/catalog_driver.hh)
 * execute these plans, so what gets served is byte-identical to the
 * binary's output by construction.
 *
 * Every point also carries a `unit_key` naming the computation
 * itself (workload, resolved window, per-point seed — but NOT the
 * experiment or request seed when the computation ignores them).
 * Points from different requests with equal unit keys are guaranteed
 * to produce interchangeable results, which is what lets the
 * batching layer run one computation for all of them: fig7 and fig8
 * at the same window both need measureMissRates() per workload — one
 * pass serves both figures. Fault-injected requests get their
 * canonical key appended to every unit key, so a fault can never
 * poison a clean request's shared unit.
 */

#ifndef MEMWALL_SERVER_CATALOG_HH
#define MEMWALL_SERVER_CATALOG_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "server/protocol.hh"

namespace memwall {
namespace server {

/** One independent computation of an experiment. */
struct CatalogPoint
{
    /** Names the computation for cross-request sharing: equal keys
     *  compute equal results (type included). */
    std::string unit_key;
    /** Human-readable point name for failure details
     *  ("workload '130.li'", "lu arch=reference cpus=4", ...). */
    std::string label;
    /** Execute the point. Runs on a pool worker; may throw. The
     *  pointee type is fixed by the experiment and understood by the
     *  plan's render(). */
    std::function<std::shared_ptr<void>()> compute;
};

/** A request decomposed into points plus its document renderer. */
struct CatalogPlan
{
    std::vector<CatalogPoint> points;
    /** Render the finished points (plan order, all non-null) into
     *  the --format=json document, trailing newline included. */
    std::function<std::string(
        const std::vector<std::shared_ptr<void>> &)>
        render;
};

/**
 * Decompose a validated @p run into its catalog plan. The request
 * must have passed parseRequest() validation; @p fault_scope is
 * appended to every unit key when non-empty (the server passes the
 * fault-suffixed canonical key so fault-injected units are never
 * shared).
 */
CatalogPlan buildCatalogPlan(const RunRequest &run,
                             const std::string &fault_scope);

/** Downcast erased point results (all non-null) to their type. */
template <typename T>
std::vector<T>
gatherResults(const std::vector<std::shared_ptr<void>> &results)
{
    std::vector<T> out;
    out.reserve(results.size());
    for (const auto &r : results) {
        MW_ASSERT(r != nullptr, "render before all points finished");
        out.push_back(*std::static_pointer_cast<T>(r));
    }
    return out;
}

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_CATALOG_HH
