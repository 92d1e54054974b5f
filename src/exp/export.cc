#include "exp/export.hh"

#include <cctype>
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

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cell += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            cells.push_back(cell);
            cell.clear();
        } else {
            cell += c;
        }
    }
    cells.push_back(cell);
    return cells;
}

/** Tiny recursive-descent parser for the JSON subset writeJson emits. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the top-level document into FlatRuns. */
    std::vector<FlatRun>
    parseDocument(std::string *experiment)
    {
        std::vector<FlatRun> runs;
        expect('{');
        for (;;) {
            const std::string key = parseString();
            expect(':');
            if (key == "experiment" && experiment) {
                *experiment = parseString();
            } else if (key == "runs") {
                expect('[');
                skipWs();
                if (peek() == ']') {
                    get();
                } else {
                    for (;;) {
                        runs.push_back(parseRun());
                        if (!consumeListSep(']'))
                            break;
                    }
                }
            } else {
                skipScalar();
            }
            if (!consumeListSep('}'))
                break;
        }
        return runs;
    }

  private:
    FlatRun
    parseRun()
    {
        FlatRun run;
        expect('{');
        for (;;) {
            const std::string key = parseString();
            expect(':');
            if (key == "benchmark") {
                run.benchmark = parseString();
            } else if (key == "kind") {
                run.kind = parseString();
            } else if (key == "variant") {
                run.variantLabel = parseString();
            } else if (key == "metrics") {
                expect('{');
                for (;;) {
                    const std::string name = parseString();
                    expect(':');
                    run.values[name] = parseNumber();
                    if (!consumeListSep('}'))
                        break;
                }
            } else {
                skipScalar();
            }
            if (!consumeListSep('}'))
                break;
        }
        return run;
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

    /** Skip a scalar value (string or number) we don't interpret. */
    void
    skipScalar()
    {
        if (peek() == '"')
            parseString();
        else
            parseNumber();
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

const std::vector<MetricField> &
metricFields()
{
    static const std::vector<MetricField> fields = {
        {"cycles",
         [](const Metrics &m) { return static_cast<double>(m.cycles); },
         [](Metrics &m, double v) { m.cycles = static_cast<Cycle>(v); }},
        {"instructions",
         [](const Metrics &m) {
             return static_cast<double>(m.instructions);
         },
         [](Metrics &m, double v) {
             m.instructions = static_cast<std::uint64_t>(v);
         }},
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
         }},
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

Metrics
metricsFromFlat(const FlatRun &run)
{
    Metrics m;
    m.benchmark = run.benchmark;
    if (!l1dKindFromString(run.kind, m.l1dKind))
        fuse_fatal("export row has unknown L1D kind '%s'",
                   run.kind.c_str());
    for (const auto &[name, value] : run.values) {
        bool known = false;
        for (const auto &f : metricFields()) {
            if (name == f.name) {
                f.set(m, value);
                known = true;
                break;
            }
        }
        if (!known)
            fuse_fatal("export row has unknown metric '%s'", name.c_str());
    }
    return m;
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

std::vector<FlatRun>
readCsv(std::istream &is)
{
    std::vector<FlatRun> runs;
    std::string line;
    if (!std::getline(is, line))
        return runs;
    const std::vector<std::string> header = splitCsvLine(line);
    if (header.size() < 3 || header[0] != "benchmark")
        fuse_fatal("CSV: unexpected header");
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> cells = splitCsvLine(line);
        if (cells.size() != header.size())
            fuse_fatal("CSV: row has %zu cells, header has %zu",
                       cells.size(), header.size());
        FlatRun run;
        run.benchmark = cells[0];
        run.kind = cells[1];
        run.variantLabel = cells[2];
        for (std::size_t i = 3; i < cells.size(); ++i)
            run.values[header[i]] = std::strtod(cells[i].c_str(), nullptr);
        runs.push_back(std::move(run));
    }
    return runs;
}

std::vector<FlatRun>
readJson(std::istream &is, std::string *experiment)
{
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();
    JsonParser parser(text);
    return parser.parseDocument(experiment);
}

} // namespace fuse
