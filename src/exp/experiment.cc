#include "exp/experiment.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>
#include <variant>

#include "common/log.hh"
#include "workload/benchmarks.hh"

namespace fuse
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos)
        return "";
    std::size_t last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

/** Split on @p sep, trimming surrounding whitespace of every item and
 *  dropping the empty ones. */
std::vector<std::string>
splitList(const std::string &text, char sep = ',')
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, sep)) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Spec `seed:` value: unsigned decimal digits only, no sign. */
std::uint64_t
parseSeed(const std::string &text, int line_no)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0'
        || errno == ERANGE)
        fuse_fatal("spec line %d: seed expects a non-negative integer, "
                   "got '%s'", line_no, text.c_str());
    return n;
}

/** Spec variant override value: a number consumed whole. */
double
parseOverrideValue(const std::string &text, int line_no)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        fuse_fatal("spec line %d: override value expects a number, "
                   "got '%s'", line_no, text.c_str());
    return v;
}

void
assign(double *field, const std::string &, double value)
{
    *field = value;
}

/** Store @p value in the integer field @p field; fatal, naming @p key,
 *  unless the field can hold it exactly. */
template <typename T>
void
assign(T *field, const std::string &key, double value)
{
    // Casting a negative or too-large double to an unsigned type is
    // undefined behaviour, and a fraction would silently truncate.
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(value >= 0.0 && value < limit && value == std::floor(value)))
        fuse_fatal("override %s = %g: expects an integer in [0, %llu]",
                   key.c_str(), value,
                   static_cast<unsigned long long>(
                       std::numeric_limits<T>::max()));
    *field = static_cast<T>(value);
}

} // namespace

void
applyOverride(SimConfig &config, const ConfigOverride &override)
{
    for (const ConfigField &f : configFields()) {
        if (override.key == f.key) {
            std::visit(
                [&](auto *field) {
                    assign(field, override.key, override.value);
                },
                f.of(config));
            return;
        }
    }
    fuse_fatal("unknown config override key '%s'", override.key.c_str());
}

std::vector<std::string>
ExperimentSpec::variantLabels() const
{
    std::vector<std::string> labels;
    if (variants.empty()) {
        labels.push_back("");
        return labels;
    }
    for (const auto &v : variants)
        labels.push_back(v.label);
    return labels;
}

SimConfig
ExperimentSpec::baseConfig() const
{
    if (base == "fermi")
        return SimConfig::fermi();
    if (base == "volta")
        return SimConfig::volta();
    if (base == "test")
        return SimConfig::testScale();
    fuse_fatal("unknown base config '%s' (fermi|volta|test)",
               base.c_str());
}

SimConfig
ExperimentSpec::configFor(std::size_t variant) const
{
    SimConfig config = baseConfig();
    // The seed is part of the spec, never of the schedule: an N-thread
    // sweep generates byte-identical traces to a serial one.
    config.gpu.traceSeed = seed;
    if (!variants.empty()) {
        if (variant >= variants.size())
            fuse_fatal("variant index %zu out of range (%zu variants)",
                       variant, variants.size());
        for (const auto &o : variants[variant].overrides)
            applyOverride(config, o);
    }
    config.validate();
    return config;
}

std::vector<std::string>
ExperimentSpec::resolveBenchmarks(const std::string &list)
{
    std::vector<std::string> names;
    for (const std::string &word : splitList(list)) {
        std::vector<std::string> group;
        if (word == "all") {
            for (const auto &b : allBenchmarks())
                group.push_back(b.name);
        } else if (word == "motivation") {
            group = motivationWorkloads();
        } else if (word == "sensitivity") {
            group = sensitivityWorkloads();
        } else {
            benchmarkByName(word); // Fatal if unknown.
            group = {word};
        }
        names.insert(names.end(), group.begin(), group.end());
    }
    if (names.empty())
        fuse_fatal("benchmark list '%s' names no workload", list.c_str());
    return names;
}

std::vector<L1DKind>
ExperimentSpec::resolveKinds(const std::string &list)
{
    std::vector<L1DKind> kinds;
    for (const std::string &word : splitList(list)) {
        L1DKind kind{};
        if (word == "all") {
            for (L1DKind k : allL1DKinds())
                kinds.push_back(k);
        } else if (l1dKindFromString(word, kind)) {
            kinds.push_back(kind);
        } else {
            fuse_fatal("unknown L1D kind '%s'", word.c_str());
        }
    }
    if (kinds.empty())
        fuse_fatal("kind list '%s' names no L1D kind", list.c_str());
    return kinds;
}

ExperimentSpec
ExperimentSpec::parse(const std::string &text)
{
    ExperimentSpec spec;
    spec.benchmarks.clear();
    spec.kinds.clear();

    std::stringstream ss(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(ss, raw)) {
        ++line_no;
        std::string line = trim(raw);
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = trim(line.substr(0, hash));
        if (line.empty())
            continue;

        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            fuse_fatal("spec line %d: expected 'key: value', got '%s'",
                       line_no, line.c_str());
        const std::string key = trim(line.substr(0, colon));
        const std::string value = trim(line.substr(colon + 1));

        if (key == "name") {
            spec.name = value;
        } else if (key == "base") {
            spec.base = value;
        } else if (key == "seed") {
            spec.seed = parseSeed(value, line_no);
        } else if (key == "benchmarks") {
            const std::vector<std::string> names = resolveBenchmarks(value);
            spec.benchmarks.insert(spec.benchmarks.end(), names.begin(),
                                   names.end());
        } else if (key == "kinds") {
            const std::vector<L1DKind> kinds = resolveKinds(value);
            spec.kinds.insert(spec.kinds.end(), kinds.begin(), kinds.end());
        } else if (key == "variant") {
            // "label | key=value, key=value" (label optional).
            ConfigVariant variant;
            std::string overrides_text = value;
            const std::size_t bar = value.find('|');
            if (bar != std::string::npos) {
                variant.label = trim(value.substr(0, bar));
                overrides_text = trim(value.substr(bar + 1));
            }
            for (const auto &assign : splitList(overrides_text)) {
                const std::size_t eq = assign.find('=');
                if (eq == std::string::npos)
                    fuse_fatal("spec line %d: expected key=value in "
                               "variant, got '%s'",
                               line_no, assign.c_str());
                ConfigOverride o;
                o.key = trim(assign.substr(0, eq));
                o.value =
                    parseOverrideValue(trim(assign.substr(eq + 1)), line_no);
                variant.overrides.push_back(std::move(o));
            }
            if (variant.label.empty())
                variant.label = overrides_text;
            spec.variants.push_back(std::move(variant));
        } else {
            fuse_fatal("spec line %d: unknown key '%s'", line_no,
                       key.c_str());
        }
    }

    // A list that is given names something, so an empty one was absent.
    if (spec.benchmarks.empty())
        spec.benchmarks = resolveBenchmarks("all");
    if (spec.kinds.empty())
        spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    // Validate override keys and values up front rather than mid-sweep.
    for (std::size_t v = 0; v < spec.variantCount(); ++v)
        spec.configFor(v);
    return spec;
}

} // namespace fuse
