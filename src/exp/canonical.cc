#include "exp/canonical.hh"

#include <cinttypes>
#include <cstdio>
#include <type_traits>

#include "fuse/l1d.hh"

namespace fuse
{

std::string
canonicalConfig(const SimConfig &config)
{
    // %.17g round-trips every finite double, matching the exp exporters,
    // so numerically-equal configs always canonicalise to equal bytes.
    std::string out;
    for (const ConfigField &f : configFields()) {
        char value[32];
        std::visit(
            [&](auto *field) {
                if constexpr (std::is_same_v<decltype(field), double *>)
                    std::snprintf(value, sizeof(value), "%.17g", *field);
                else
                    std::snprintf(value, sizeof(value), "%" PRIu64,
                                  static_cast<std::uint64_t>(*field));
            },
            f.of(const_cast<SimConfig &>(config))); // Read, never written.
        out += f.key;
        out += " = ";
        out += value;
        out += '\n';
    }
    return out;
}

std::string
canonicalSpecPoint(const ExperimentSpec &spec, std::size_t b, std::size_t v,
                   std::size_t k)
{
    // The header pins the workload half of the run; configFor(v) bakes
    // the spec's seed and variant overrides (and any FUSE_FAST budget
    // scaling) into the config half, so the point text is independent of
    // how the spec was authored.
    std::string out = "fuse canonical point v1\n";
    out += "benchmark = ";
    out += spec.benchmarks.at(b);
    out += '\n';
    out += "kind = ";
    out += toString(spec.kinds.at(k));
    out += '\n';
    out += canonicalConfig(spec.configFor(v));
    return out;
}

} // namespace fuse
