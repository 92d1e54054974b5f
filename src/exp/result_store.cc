#include "exp/result_store.hh"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "exp/canonical.hh"
#include "exp/export.hh"
#include "fuse/l1d.hh"

namespace fs = std::filesystem;

namespace fuse
{

namespace
{

// Records are one-cell ResultSets; the experiment name doubles as the
// on-disk format version so a future layout change can refuse (or
// migrate) old stores instead of misparsing them. The id predates the
// fold of the store into fuse_sweep and stays, so old stores stay warm.
constexpr const char *kRecordFormat = "fuse_serve/v1";

/** Write @p text to @p path via a temporary file and a rename. */
void
commitFile(const std::string &path, const std::string &text)
{
    // The pid keeps sweeps that share a store apart (each process counts
    // from zero); the serial keeps this process's workers apart. Writers
    // of one key write identical bytes, so the last rename wins
    // harmlessly.
    static std::atomic<unsigned> serial{0};
    const std::string tmp = path + ".tmp" + std::to_string(::getpid())
                            + "." + std::to_string(serial.fetch_add(1));
    {
        std::ofstream f(tmp);
        if (!f)
            fuse_fatal("cannot write store file '%s'", tmp.c_str());
        f << text;
        if (!f.flush())
            fuse_fatal("short write to store file '%s'", tmp.c_str());
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fuse_fatal("cannot commit store file '%s': %s", path.c_str(),
                   ec.message().c_str());
}

/** Canonical point text + fingerprint line: the exact bytes a store key
 *  hashes (also what the record's .point sidecar holds). */
std::string
keyedPointText(const ExperimentSpec &spec, std::size_t b, std::size_t v,
               std::size_t k, std::uint64_t fingerprint)
{
    std::string text = canonicalSpecPoint(spec, b, v, k);
    text += "fingerprint = ";
    text += hexDigest64(fingerprint);
    text += '\n';
    return text;
}

} // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fuse_fatal("cannot create result store '%s': %s", dir_.c_str(),
                   ec.message().c_str());
}

std::string
ResultStore::recordPath(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

std::string
ResultStore::sidecarPath(const std::string &key) const
{
    return dir_ + "/" + key + ".point";
}

bool
ResultStore::get(const std::string &key, RunResult &out) const
{
    std::ifstream is(recordPath(key));
    if (!is)
        return false;
    std::string experiment;
    const std::vector<FlatRun> runs = readJson(is, &experiment);
    if (experiment != kRecordFormat || runs.size() != 1)
        fuse_fatal("store record '%s' is not a %s record (experiment "
                   "'%s', %zu runs)", recordPath(key).c_str(),
                   kRecordFormat, experiment.c_str(), runs.size());
    const FlatRun &run = runs.front();
    L1DKind kind;
    if (!l1dKindFromString(run.kind, kind))
        fuse_fatal("store record '%s' has unknown L1D kind '%s'",
                   recordPath(key).c_str(), run.kind.c_str());
    out.benchmark = run.benchmark;
    out.kind = kind;
    out.variant = 0;
    out.variantLabel = run.variantLabel;
    out.metrics = metricsFromFlat(run);
    out.valid = true;
    return true;
}

void
ResultStore::put(const std::string &key, const RunResult &run,
                 const std::string &point_text) const
{
    ResultSet record(kRecordFormat, {run.benchmark}, {run.kind},
                     {run.variantLabel});
    RunResult &cell = record.at(0);
    cell = run;
    cell.variant = 0;
    cell.valid = true;

    std::ostringstream os;
    writeJson(os, record);
    // Sidecar first: a visible record always has its audit text.
    commitFile(sidecarPath(key), point_text);
    commitFile(recordPath(key), os.str());
}

bool
ResultStore::evict(const std::string &key) const
{
    std::error_code ec;
    const bool existed = fs::remove(recordPath(key), ec);
    fs::remove(sidecarPath(key), ec);
    return existed;
}

std::size_t
ResultStore::size() const
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec))
        if (entry.path().extension() == ".json")
            ++n;
    return n;
}

std::uint64_t
binaryFingerprint()
{
    // The probe pins its instruction budget by override so FUSE_FAST
    // (which only scales preset budgets) can't make two identical
    // builds disagree; base "test" keeps it to ~18 tiny runs.
    static const std::uint64_t fp = []() {
        ExperimentSpec spec;
        spec.name = "fingerprint_probe";
        spec.base = "test";
        spec.benchmarks = {"ATAX", "BICG"};
        spec.kinds = allL1DKinds();
        spec.seed = 1;
        spec.variants = {ConfigVariant{
            "probe", {ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}}};
        SweepRunner runner(1);
        const ResultSet results = runner.run(spec);
        std::ostringstream os;
        writeJson(os, results);
        return fnv1a64(os.str());
    }();
    return fp;
}

std::string
storeKey(const ExperimentSpec &spec, std::size_t b, std::size_t v,
         std::size_t k, std::uint64_t fingerprint)
{
    return hexDigest64(fnv1a64(keyedPointText(spec, b, v, k, fingerprint)));
}

ResultSet
runWithStore(const SweepRunner &runner, const ExperimentSpec &spec,
             const ResultStore &store, std::uint64_t fingerprint,
             StoreStats &stats, std::size_t shard_index,
             std::size_t shard_count)
{
    const std::vector<std::string> labels = spec.variantLabels();
    ResultSet served(spec.name, spec.benchmarks, spec.kinds, labels);
    const std::vector<std::size_t> cells =
        shardCells(served.size(), shard_index, shard_count);

    const std::size_t kinds = spec.kinds.size();
    const std::size_t variants = spec.variantCount();
    std::vector<std::string> texts(served.size());
    std::vector<std::size_t> misses;
    for (std::size_t i : cells) {
        const std::size_t k = i % kinds;
        const std::size_t v = (i / kinds) % variants;
        const std::size_t b = i / (kinds * variants);
        texts[i] = keyedPointText(spec, b, v, k, fingerprint);
        const std::string key = hexDigest64(fnv1a64(texts[i]));
        RunResult &cell = served.at(i);
        if (!store.get(key, cell)) {
            misses.push_back(i);
            continue;
        }
        // A key collision or a store pointed at the wrong tree would
        // serve the wrong simulation; refuse loudly.
        if (cell.benchmark != spec.benchmarks[b]
            || cell.kind != spec.kinds[k])
            fuse_fatal("store record %s holds (%s, %s), sweep cell is "
                       "(%s, %s)", key.c_str(), cell.benchmark.c_str(),
                       toString(cell.kind), spec.benchmarks[b].c_str(),
                       toString(spec.kinds[k]));
        cell.variant = v;
        cell.variantLabel = labels[v];
    }

    // Workers store their own cells; puts are rename-atomic.
    ResultSet results = runner.runCells(
        spec, misses, [&](const RunResult &run, std::size_t i) {
            store.put(hexDigest64(fnv1a64(texts[i])), run, texts[i]);
        });
    // Overlap-fatal: no cell is both served and simulated.
    results.merge(served);

    stats.cells = cells.size();
    stats.hits = cells.size() - misses.size();
    stats.simulated = misses.size();
    return results;
}

} // namespace fuse
