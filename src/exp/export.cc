#include "exp/export.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/log.hh"

namespace fuse
{

namespace
{

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Quote a CSV cell if it contains a separator, quote, or newline. */
std::string
csvCell(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** JSON string escaping for our label/name values. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

/** Recursive-descent parser for the JSON writeJson emits, keys in its
 *  order. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the whole document: its experiment name and its rows. */
    std::vector<RunResult>
    parseDocument(std::string &experiment)
    {
        std::vector<RunResult> rows;
        expect('{');
        expectKey("experiment");
        experiment = parseString();
        expect(',');
        expectKey("runs");
        expect('[');
        if (peek() == ']') {
            get();
        } else {
            do
                rows.push_back(parseRow());
            while (consumeListSep(']'));
        }
        expect('}');
        skipWs();
        if (pos_ != text_.size())
            fuse_fatal("JSON: trailing text at offset %zu", pos_);
        return rows;
    }

  private:
    RunResult
    parseRow()
    {
        RunResult row;
        expect('{');
        expectKey("benchmark");
        row.benchmark = parseString();
        expect(',');
        expectKey("kind");
        const std::string kind = parseString();
        if (!l1dKindFromString(kind, row.kind))
            fuse_fatal("JSON: unknown L1D kind '%s'", kind.c_str());
        expect(',');
        expectKey("variant");
        row.variantLabel = parseString();
        expect(',');
        expectKey("metrics");
        expect('{');
        for (const MetricField &f : metricFields()) {
            if (&f != &metricFields().front())
                expect(',');
            expectKey(f.name);
            const double v = parseNumber();
            // A count's setter converts to an integer, which is
            // undefined for a value outside [0, 2^64).
            if (f.count && !(v >= 0 && v < 0x1p64 && v == std::floor(v)))
                fuse_fatal("JSON: metric '%s' is a count, got %.17g",
                           f.name, v);
            f.set(row.metrics, v);
        }
        expect('}');
        expect('}');
        row.metrics.benchmark = row.benchmark;
        row.metrics.l1dKind = row.kind;
        return row;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fuse_fatal("JSON: unexpected end of input");
        return text_[pos_];
    }

    char
    get()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        const char got = get();
        if (got != c)
            fuse_fatal("JSON: expected '%c' at offset %zu, got '%c'", c,
                       pos_ - 1, got);
    }

    /** The object key @p key and its ':'. */
    void
    expectKey(const char *key)
    {
        skipWs();
        const std::size_t at = pos_;
        const std::string got = parseString();
        if (got != key)
            fuse_fatal("JSON: expected key '%s' at offset %zu, got '%s'",
                       key, at, got.c_str());
        expect(':');
    }

    /** After a value: ',' continues the list, @p close ends it. */
    bool
    consumeListSep(char close)
    {
        const char c = get();
        if (c == ',')
            return true;
        if (c == close)
            return false;
        fuse_fatal("JSON: expected ',' or '%c' at offset %zu", close,
                   pos_ - 1);
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\' && pos_ < text_.size()) {
                const char e = text_[pos_++];
                switch (e) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  default: out += e;
                }
            } else {
                out += c;
            }
        }
        fuse_fatal("JSON: unterminated string");
    }

    double
    parseNumber()
    {
        skipWs();
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            fuse_fatal("JSON: expected a number at offset %zu", pos_);
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** Append @p value to @p axis unless it already holds it. */
template <typename T>
void
addOnce(std::vector<T> &axis, const T &value)
{
    if (std::find(axis.begin(), axis.end(), value) == axis.end())
        axis.push_back(value);
}

} // namespace

const std::vector<MetricField> &
metricFields()
{
    static const std::vector<MetricField> fields = {
        {"cycles",
         [](const Metrics &m) { return static_cast<double>(m.cycles); },
         [](Metrics &m, double v) { m.cycles = static_cast<Cycle>(v); },
         true},
        {"instructions",
         [](const Metrics &m) {
             return static_cast<double>(m.instructions);
         },
         [](Metrics &m, double v) {
             m.instructions = static_cast<std::uint64_t>(v);
         },
         true},
        {"ipc", [](const Metrics &m) { return m.ipc; },
         [](Metrics &m, double v) { m.ipc = v; }},
        {"l1d_miss_rate", [](const Metrics &m) { return m.l1dMissRate; },
         [](Metrics &m, double v) { m.l1dMissRate = v; }},
        {"apki", [](const Metrics &m) { return m.apki; },
         [](Metrics &m, double v) { m.apki = v; }},
        {"offchip_requests",
         [](const Metrics &m) {
             return static_cast<double>(m.offchipRequests);
         },
         [](Metrics &m, double v) {
             m.offchipRequests = static_cast<std::uint64_t>(v);
         },
         true},
        {"bypass_ratio", [](const Metrics &m) { return m.bypassRatio; },
         [](Metrics &m, double v) { m.bypassRatio = v; }},
        {"stall_stt", [](const Metrics &m) { return m.sttStallCycles; },
         [](Metrics &m, double v) { m.sttStallCycles = v; }},
        {"stall_tag_search",
         [](const Metrics &m) { return m.tagSearchStallCycles; },
         [](Metrics &m, double v) { m.tagSearchStallCycles = v; }},
        {"l1d_stall_cycles",
         [](const Metrics &m) { return m.l1dStallCycles; },
         [](Metrics &m, double v) { m.l1dStallCycles = v; }},
        {"pred_true", [](const Metrics &m) { return m.predTrue; },
         [](Metrics &m, double v) { m.predTrue = v; }},
        {"pred_false", [](const Metrics &m) { return m.predFalse; },
         [](Metrics &m, double v) { m.predFalse = v; }},
        {"pred_neutral", [](const Metrics &m) { return m.predNeutral; },
         [](Metrics &m, double v) { m.predNeutral = v; }},
        {"mem_wait_fraction",
         [](const Metrics &m) { return m.memWaitFraction; },
         [](Metrics &m, double v) { m.memWaitFraction = v; }},
        {"network_share", [](const Metrics &m) { return m.networkShare; },
         [](Metrics &m, double v) { m.networkShare = v; }},
        {"dram_share", [](const Metrics &m) { return m.dramShare; },
         [](Metrics &m, double v) { m.dramShare = v; }},
        {"energy_l1d_dynamic",
         [](const Metrics &m) { return m.energy.l1dDynamic; },
         [](Metrics &m, double v) { m.energy.l1dDynamic = v; }},
        {"energy_l1d_leakage",
         [](const Metrics &m) { return m.energy.l1dLeakage; },
         [](Metrics &m, double v) { m.energy.l1dLeakage = v; }},
        {"energy_l2", [](const Metrics &m) { return m.energy.l2; },
         [](Metrics &m, double v) { m.energy.l2 = v; }},
        {"energy_dram", [](const Metrics &m) { return m.energy.dram; },
         [](Metrics &m, double v) { m.energy.dram = v; }},
        {"energy_noc", [](const Metrics &m) { return m.energy.noc; },
         [](Metrics &m, double v) { m.energy.noc = v; }},
        {"energy_compute",
         [](const Metrics &m) { return m.energy.compute; },
         [](Metrics &m, double v) { m.energy.compute = v; }},
        {"energy_sm_leakage",
         [](const Metrics &m) { return m.energy.smLeakage; },
         [](Metrics &m, double v) { m.energy.smLeakage = v; }},
    };
    return fields;
}

void
writeCsv(std::ostream &os, const ResultSet &results)
{
    os << "benchmark,kind,variant";
    for (const auto &f : metricFields())
        os << ',' << f.name;
    os << '\n';
    for (const auto &run : results.runs()) {
        if (!run.valid)
            continue;
        os << csvCell(run.benchmark) << ',' << toString(run.kind) << ','
           << csvCell(run.variantLabel);
        for (const auto &f : metricFields())
            os << ',' << formatDouble(f.get(run.metrics));
        os << '\n';
    }
}

void
writeJson(std::ostream &os, const ResultSet &results)
{
    os << "{\n  \"experiment\": " << jsonString(results.name())
       << ",\n  \"runs\": [";
    bool first = true;
    for (const auto &run : results.runs()) {
        if (!run.valid)
            continue;
        os << (first ? "" : ",") << "\n    {\"benchmark\": "
           << jsonString(run.benchmark)
           << ", \"kind\": " << jsonString(toString(run.kind))
           << ", \"variant\": " << jsonString(run.variantLabel)
           << ", \"metrics\": {";
        first = false;
        bool first_metric = true;
        for (const auto &f : metricFields()) {
            os << (first_metric ? "" : ", ") << jsonString(f.name) << ": "
               << formatDouble(f.get(run.metrics));
            first_metric = false;
        }
        os << "}}";
    }
    os << "\n  ]\n}\n";
}

ResultSet
readJson(std::istream &is)
{
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();
    std::string name;
    const std::vector<RunResult> rows =
        JsonParser(text).parseDocument(name);

    std::vector<std::string> benchmarks;
    std::vector<L1DKind> kinds;
    std::vector<std::string> labels;
    for (const RunResult &row : rows) {
        addOnce(benchmarks, row.benchmark);
        addOnce(kinds, row.kind);
        addOnce(labels, row.variantLabel);
    }
    ResultSet results(name, benchmarks, kinds, labels);
    if (rows.size() != results.size())
        fuse_fatal("JSON: %zu rows for the %zu cells of the '%s' grid",
                   rows.size(), results.size(), name.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        RunResult &cell = results.at(i);
        const RunResult &row = rows[i];
        if (row.benchmark != cell.benchmark || row.kind != cell.kind
            || row.variantLabel != cell.variantLabel)
            fuse_fatal("JSON: row %zu is (%s, %s, '%s') where the '%s' "
                       "grid has cell (%s, %s, '%s')", i,
                       row.benchmark.c_str(), toString(row.kind),
                       row.variantLabel.c_str(), name.c_str(),
                       cell.benchmark.c_str(), toString(cell.kind),
                       cell.variantLabel.c_str());
        cell.metrics = row.metrics;
        cell.valid = true;
    }
    return results;
}

} // namespace fuse
