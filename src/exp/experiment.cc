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

/** An assignable SimConfig field: a real or an unsigned integer. */
using FieldRef = std::variant<double *, std::uint32_t *, std::uint64_t *>;

/** Table of assignable SimConfig fields, keyed by dotted path. */
struct OverrideField
{
    const char *key;
    FieldRef (*field)(SimConfig &);
};

const std::vector<OverrideField> &
overrideFields()
{
    static const std::vector<OverrideField> fields = {
        {"gpu.numSms", [](SimConfig &c) -> FieldRef { return &c.gpu.numSms; }},
        {"gpu.warpsPerSm",
         [](SimConfig &c) -> FieldRef { return &c.gpu.warpsPerSm; }},
        {"gpu.instructionBudgetPerSm",
         [](SimConfig &c) -> FieldRef {
             return &c.gpu.instructionBudgetPerSm;
         }},
        {"gpu.maxCycles",
         [](SimConfig &c) -> FieldRef { return &c.gpu.maxCycles; }},
        {"gpu.traceSeed",
         [](SimConfig &c) -> FieldRef { return &c.gpu.traceSeed; }},
        {"l1d.areaBudgetBytes",
         [](SimConfig &c) -> FieldRef { return &c.l1d.areaBudgetBytes; }},
        {"l1d.sramAreaFraction",
         [](SimConfig &c) -> FieldRef { return &c.l1d.sramAreaFraction; }},
        {"l1d.sttDensity",
         [](SimConfig &c) -> FieldRef { return &c.l1d.sttDensity; }},
        {"l1d.sramWays",
         [](SimConfig &c) -> FieldRef { return &c.l1d.sramWays; }},
        {"l1d.sttWays",
         [](SimConfig &c) -> FieldRef { return &c.l1d.sttWays; }},
        {"l1d.baselineWays",
         [](SimConfig &c) -> FieldRef { return &c.l1d.baselineWays; }},
        {"l1d.nvmWays",
         [](SimConfig &c) -> FieldRef { return &c.l1d.nvmWays; }},
        {"l1d.mshrEntries",
         [](SimConfig &c) -> FieldRef { return &c.l1d.mshrEntries; }},
        {"l1d.tagQueueEntries",
         [](SimConfig &c) -> FieldRef { return &c.l1d.tagQueueEntries; }},
        {"l1d.swapBufferEntries",
         [](SimConfig &c) -> FieldRef { return &c.l1d.swapBufferEntries; }},
        {"l1d.approx.numCbfs",
         [](SimConfig &c) -> FieldRef { return &c.l1d.approx.numCbfs; }},
        {"l1d.approx.numHashes",
         [](SimConfig &c) -> FieldRef { return &c.l1d.approx.numHashes; }},
        {"l1d.approx.cbfSlots",
         [](SimConfig &c) -> FieldRef { return &c.l1d.approx.cbfSlots; }},
        {"l1d.approx.comparators",
         [](SimConfig &c) -> FieldRef { return &c.l1d.approx.comparators; }},
        {"l1d.predictor.samplerSets",
         [](SimConfig &c) -> FieldRef {
             return &c.l1d.predictor.samplerSets;
         }},
        {"l1d.predictor.samplerWays",
         [](SimConfig &c) -> FieldRef {
             return &c.l1d.predictor.samplerWays;
         }},
        {"l1d.predictor.historyEntries",
         [](SimConfig &c) -> FieldRef {
             return &c.l1d.predictor.historyEntries;
         }},
        {"l1d.predictor.unusedThreshold",
         [](SimConfig &c) -> FieldRef {
             return &c.l1d.predictor.unusedThreshold;
         }},
        {"l1d.predictor.counterInit",
         [](SimConfig &c) -> FieldRef {
             return &c.l1d.predictor.counterInit;
         }},
        {"energy.coreClockHz",
         [](SimConfig &c) -> FieldRef { return &c.energy.coreClockHz; }},
    };
    return fields;
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

const std::vector<std::string> &
overrideKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const auto &f : overrideFields())
            out.push_back(f.key);
        return out;
    }();
    return keys;
}

void
applyOverride(SimConfig &config, const ConfigOverride &override)
{
    for (const auto &f : overrideFields()) {
        if (override.key == f.key) {
            std::visit(
                [&](auto *field) {
                    assign(field, override.key, override.value);
                },
                f.field(config));
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
splitList(const std::string &text, char sep)
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

std::vector<std::string>
ExperimentSpec::resolveBenchmarks(const std::string &word)
{
    if (word == "all") {
        std::vector<std::string> names;
        for (const auto &b : allBenchmarks())
            names.push_back(b.name);
        return names;
    }
    if (word == "motivation")
        return motivationWorkloads();
    if (word == "sensitivity")
        return sensitivityWorkloads();
    benchmarkByName(word); // Fatal if unknown.
    return {word};
}

std::vector<L1DKind>
ExperimentSpec::resolveKinds(const std::string &word)
{
    if (word == "all")
        return allL1DKinds();
    L1DKind kind;
    if (!l1dKindFromString(word, kind))
        fuse_fatal("unknown L1D kind '%s'", word.c_str());
    return {kind};
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
            for (const auto &word : splitList(value))
                for (const auto &name : resolveBenchmarks(word))
                    spec.benchmarks.push_back(name);
        } else if (key == "kinds") {
            for (const auto &word : splitList(value))
                for (L1DKind k : resolveKinds(word))
                    spec.kinds.push_back(k);
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
