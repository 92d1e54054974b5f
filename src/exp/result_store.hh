/**
 * @file
 * ResultStore: a persistent, content-addressed cache of simulated grid
 * cells behind `fuse_sweep --store DIR`. Most of the paper's evaluation
 * re-sweeps one machine (fig13 and fig14 are the same 147-cell grid), so
 * a cell simulated once is served from disk by every later sweep that
 * contains it.
 *
 * One record per cell, named by its store key (16 hex digits = FNV-1a of
 * the canonical point text plus a binary fingerprint line, see
 * storeKey), stored as a one-cell writeJson export so a served cell
 * round-trips the exporters' %.17g discipline bit-for-bit: a sweep
 * assembled from the store is byte-identical to one simulated fresh.
 * Next to every record sits a ".point" sidecar holding the text that
 * hashed to the key, so a store can be audited by hand.
 *
 * Records hold the exported metric set (metricFields()); like shard
 * merges, non-exported diagnostics (predOutcomes, profile) are not
 * preserved across the store.
 */

#ifndef FUSE_EXP_RESULT_STORE_HH
#define FUSE_EXP_RESULT_STORE_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "exp/experiment.hh"
#include "exp/result_set.hh"
#include "exp/sweep_runner.hh"

namespace fuse
{

class ResultStore
{
  public:
    /** Open (creating if needed) the store rooted at @p dir. */
    explicit ResultStore(std::string dir);

    /**
     * Load the record for @p key into @p out (valid=true on success).
     * Returns false when no record exists; fatal on a corrupt record —
     * the store only ever holds our own writeJson output, so a parse
     * failure means damage that silent re-simulation would paper over.
     */
    bool get(const std::string &key, RunResult &out) const;

    /**
     * Persist @p run under @p key, with @p point_text as the audit
     * sidecar. Each file is written under a name unique to this process
     * and write, then renamed into place, so a crashed writer never
     * leaves a half-record and concurrent sweeps sharing the store never
     * collide.
     */
    void put(const std::string &key, const RunResult &run,
             const std::string &point_text) const;

    /** Remove @p key's record (and sidecar); false when absent. */
    bool evict(const std::string &key) const;

    /** Number of records currently in the store. */
    std::size_t size() const;

  private:
    std::string recordPath(const std::string &key) const;
    std::string sidecarPath(const std::string &key) const;

    std::string dir_;
};

/**
 * Behavioural fingerprint of this binary: FNV-1a of the writeJson
 * export of a tiny deterministic probe sweep (test-scale preset, pinned
 * instruction budget so FUSE_FAST can't skew it, every L1D kind).
 * Computed once per process and cached. Two builds that simulate
 * identically share a fingerprint, so a pure refactor keeps a store
 * warm; any behavioural drift changes it and the store goes cold.
 */
std::uint64_t binaryFingerprint();

/**
 * Store key of cell (@p b, @p v, @p k) of @p spec's grid: 16 lowercase
 * hex digits of FNV-1a over canonicalSpecPoint plus a
 * "fingerprint = <hex>" line (that text is also the record's sidecar).
 * Pinned by the committed hash goldens in test_result_store.cc.
 */
std::string storeKey(const ExperimentSpec &spec, std::size_t b,
                     std::size_t v, std::size_t k,
                     std::uint64_t fingerprint);

/** What one runWithStore call served and simulated. */
struct StoreStats
{
    std::size_t cells = 0;      ///< Cells requested (the shard slice).
    std::size_t hits = 0;       ///< Served from the store.
    std::size_t simulated = 0;  ///< Run on the pool, then stored.
};

/**
 * SweepRunner::run(@p spec, @p shard_index, @p shard_count) through
 * @p store: every requested cell whose key (under @p fingerprint) has a
 * record is served from it, only the misses are simulated on
 * @p runner's pool, and each simulated cell is stored as soon as it
 * finishes. The result is byte-identical to the store-less run. Fatal
 * if a record names a different (benchmark, kind) than its cell.
 */
ResultSet runWithStore(const SweepRunner &runner, const ExperimentSpec &spec,
                       const ResultStore &store, std::uint64_t fingerprint,
                       StoreStats &stats, std::size_t shard_index = 0,
                       std::size_t shard_count = 1);

} // namespace fuse

#endif // FUSE_EXP_RESULT_STORE_HH
