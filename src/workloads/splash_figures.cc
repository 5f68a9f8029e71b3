#include "workloads/splash_figures.hh"

#include <cinttypes>

#include "common/json_text.hh"
#include "common/logging.hh"

namespace memwall {

using jsontext::appendf;

namespace {

struct FigureMeta
{
    const char *name;
    const char *title;
    const char *kernel;
    const char *dataset;
    double full_scale;
};

const FigureMeta &
meta(SplashFigure fig)
{
    static const FigureMeta table[] = {
        {"fig13_lu", "Figure 13", "lu", "200x200-matrix", 0.5},
        {"fig14_mp3d", "Figure 14", "mp3d", "10K-particles-10-steps", 1.0},
        {"fig15_ocean", "Figure 15", "ocean", "128x128-grid", 1.0},
        {"fig16_water", "Figure 16", "water", "288-molecules-4-steps", 1.0},
        {"fig17_pthor", "Figure 17", "pthor", "RISC-circuit-1000-steps", 0.3},
    };
    const auto index = static_cast<std::size_t>(fig);
    MW_ASSERT(index < sizeof(table) / sizeof(table[0]),
              "unknown SPLASH figure");
    return table[index];
}

} // namespace

const char *
splashFigureName(SplashFigure fig)
{
    return meta(fig).name;
}

const char *
splashFigureTitle(SplashFigure fig)
{
    return meta(fig).title;
}

const char *
splashFigureKernel(SplashFigure fig)
{
    return meta(fig).kernel;
}

const char *
splashFigureDataset(SplashFigure fig)
{
    return meta(fig).dataset;
}

double
splashFigureFullScale(SplashFigure fig)
{
    return meta(fig).full_scale;
}

double
resolveSplashScale(SplashFigure fig, bool quick)
{
    const double full = splashFigureFullScale(fig);
    return quick ? full / 6.0 : full;
}

const std::vector<std::string> &
splashArchs()
{
    static const std::vector<std::string> archs{
        "reference", "integrated", "integrated+vc"};
    return archs;
}

NumaConfig
splashMachineFor(const std::string &arch, unsigned nodes)
{
    NumaConfig config;
    config.nodes = nodes;
    if (arch == "reference") {
        config.arch = NodeArch::ReferenceCcNuma;
    } else if (arch == "integrated") {
        config.arch = NodeArch::Integrated;
        config.victim_cache = false;
    } else { // "integrated+vc"
        config.arch = NodeArch::Integrated;
        config.victim_cache = true;
    }
    return config;
}

std::vector<unsigned>
splashCpuCounts(std::uint64_t nodes)
{
    if (nodes == 0)
        return {1, 2, 4, 8, 16};
    MW_ASSERT(nodes <= splash_max_nodes,
              "node count above the figure's axis");
    return {static_cast<unsigned>(nodes)};
}

SplashResult
runSplashFigurePoint(SplashFigure fig, const std::string &arch,
                     unsigned ncpus, double scale,
                     const SamplingPlan *plan)
{
    SplashParams params;
    params.nprocs = ncpus;
    params.machine = splashMachineFor(arch, ncpus);
    params.scale = scale;
    params.sampling = plan;
    return runSplash(splashFigureKernel(fig), params);
}

std::vector<SplashResult>
runSplashFigure(SplashFigure fig, double scale, std::uint64_t nodes,
                const SamplingPlan *plan)
{
    std::vector<SplashResult> points;
    for (const auto &arch : splashArchs())
        for (unsigned ncpus : splashCpuCounts(nodes))
            points.push_back(
                runSplashFigurePoint(fig, arch, ncpus, scale, plan));
    return points;
}

namespace {

/** Common document head: bench tag, sampled flag, scale, nodes. */
std::string
figureHead(SplashFigure fig, bool sampled, double scale,
           std::uint64_t nodes)
{
    std::string out;
    appendf(out,
            "{\n  \"bench\": \"%s\", \"sampled\": %s, "
            "\"scale\": %s, \"nodes\": %" PRIu64 ",\n"
            "  \"points\": [\n",
            splashFigureName(fig), sampled ? "true" : "false",
            jsontext::num(scale).c_str(), nodes);
    return out;
}

/** The (arch, cpus) labels of point @p index, sweep order. */
void
pointLabels(std::uint64_t nodes, std::size_t index,
            std::string &arch, unsigned &ncpus)
{
    const auto counts = splashCpuCounts(nodes);
    arch = splashArchs()[index / counts.size()];
    ncpus = counts[index % counts.size()];
}

} // namespace

std::string
splashFigureJson(SplashFigure fig, double scale, std::uint64_t nodes,
                 const std::vector<SplashResult> &points)
{
    MW_ASSERT(points.size() ==
                  splashArchs().size() * splashCpuCounts(nodes).size(),
              "SPLASH renderer given a partial sweep");
    std::string out = figureHead(fig, false, scale, nodes);
    const double base = static_cast<double>(points[0].makespan);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SplashResult &res = points[i];
        std::string arch;
        unsigned ncpus = 0;
        pointLabels(nodes, i, arch, ncpus);
        appendf(out,
                "    {\"arch\": \"%s\", \"cpus\": %u, "
                "\"makespan\": %" PRIu64 ", \"relative_time\": %s, "
                "\"checksum\": %s}%s\n",
                arch.c_str(), ncpus,
                static_cast<std::uint64_t>(res.makespan),
                jsontext::num(static_cast<double>(res.makespan) /
                              base)
                    .c_str(),
                jsontext::num(res.checksum).c_str(),
                i + 1 < points.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

std::string
splashFigureSampledJson(SplashFigure fig, double scale,
                        std::uint64_t nodes,
                        const std::vector<SplashResult> &points)
{
    MW_ASSERT(points.size() ==
                  splashArchs().size() * splashCpuCounts(nodes).size(),
              "SPLASH renderer given a partial sweep");
    std::string out = figureHead(fig, true, scale, nodes);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SplashResult &res = points[i];
        std::string arch;
        unsigned ncpus = 0;
        pointLabels(nodes, i, arch, ncpus);
        appendf(out,
                "    {\"arch\": \"%s\", \"cpus\": %u, "
                "\"latency_mean\": %s, \"latency_half\": %s, "
                "\"units\": %" PRIu64 ", \"detail_accesses\": %" PRIu64
                ", \"ff_accesses\": %" PRIu64 ", \"checksum\": %s}%s\n",
                arch.c_str(), ncpus,
                jsontext::num(res.sampled_latency).c_str(),
                jsontext::num(res.sampled_latency_half).c_str(),
                res.sample_units, res.detail_accesses,
                res.ff_accesses,
                jsontext::num(res.checksum).c_str(),
                i + 1 < points.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace memwall
