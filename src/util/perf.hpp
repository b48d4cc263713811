// Lightweight performance counters for the inference fast path.
//
// Process-wide relaxed atomics, incremented once per kernel call (never
// per element), so they are cheap enough to stay on in production. The
// batch runtime snapshots them around a run and reports the deltas in
// BatchTimings; bench/gcn_inference uses them to prove the workspace
// path performs zero steady-state heap allocations.
//
// Counters are global, not per-thread: concurrent *independent* batch
// runs in one process would mix their deltas. Within one BatchRunner run
// (the supported concurrency model) sums across workers are exactly what
// the observability layer wants.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gana {

/// Point-in-time copy of every counter; subtract two snapshots to get
/// the activity of a region.
struct PerfSnapshot {
  std::uint64_t matrix_allocs = 0;       ///< dense buffers that hit the heap
  std::uint64_t matrix_alloc_bytes = 0;  ///< bytes requested by those allocs
  std::uint64_t spmm_calls = 0;          ///< sparse*dense products
  std::uint64_t spmm_flops = 0;          ///< 2*nnz*cols per product
  std::uint64_t matmul_calls = 0;        ///< dense*dense products
  std::uint64_t matmul_flops = 0;        ///< 2*m*n*k per product
  std::uint64_t sample_cache_hits = 0;   ///< SamplePrepCache lookups served
  std::uint64_t sample_cache_misses = 0; ///< lookups that had to compute
  std::uint64_t inference_cache_hits = 0;   ///< InferenceCache lookups served
  std::uint64_t inference_cache_misses = 0; ///< lookups that ran the GCN
  std::uint64_t vf2_states = 0;          ///< VF2 search states explored
  std::uint64_t vf2_sig_rejections = 0;  ///< candidates cut by the signature lookahead
  std::uint64_t vf2_pattern_skips = 0;   ///< patterns cut by the counting filter
  std::uint64_t annotation_cache_hits = 0;    ///< AnnotationCache lookups served
  std::uint64_t annotation_cache_misses = 0;  ///< lookups that ran the matcher
  std::uint64_t cache_evictions = 0;  ///< entries dropped by capacity-bounded
                                      ///< sharded caches (any cache)
  std::uint64_t parse_bytes = 0;       ///< netlist text bytes fed to a parser
  std::uint64_t intern_hits = 0;       ///< SymbolTable lookups of known names
  std::uint64_t intern_misses = 0;     ///< SymbolTable first-time interns
  std::uint64_t frontend_allocs = 0;   ///< interned front-end heap allocations
                                       ///< (arena chunks, table rehashes)
  std::uint64_t incr_regions = 0;      ///< regions seen by session runs
  std::uint64_t incr_region_reuses = 0;     ///< regions fully served by the
                                            ///< session's per-structure caches
  std::uint64_t incr_region_recomputes = 0; ///< regions that ran GCN/VF2 fresh
  std::uint64_t incr_canon_fallbacks = 0;   ///< regions whose canonical-order
                                            ///< search hit the branch budget

  /// Counterwise difference (this - since).
  [[nodiscard]] PerfSnapshot operator-(const PerfSnapshot& since) const;
};

/// Reads every counter (relaxed; exact when no kernel is concurrently
/// running, a consistent-enough view otherwise).
[[nodiscard]] PerfSnapshot perf_snapshot();

namespace perf {

namespace detail {
extern std::atomic<std::uint64_t> matrix_allocs;
extern std::atomic<std::uint64_t> matrix_alloc_bytes;
extern std::atomic<std::uint64_t> spmm_calls;
extern std::atomic<std::uint64_t> spmm_flops;
extern std::atomic<std::uint64_t> matmul_calls;
extern std::atomic<std::uint64_t> matmul_flops;
extern std::atomic<std::uint64_t> sample_cache_hits;
extern std::atomic<std::uint64_t> sample_cache_misses;
extern std::atomic<std::uint64_t> inference_cache_hits;
extern std::atomic<std::uint64_t> inference_cache_misses;
extern std::atomic<std::uint64_t> vf2_states;
extern std::atomic<std::uint64_t> vf2_sig_rejections;
extern std::atomic<std::uint64_t> vf2_pattern_skips;
extern std::atomic<std::uint64_t> annotation_cache_hits;
extern std::atomic<std::uint64_t> annotation_cache_misses;
extern std::atomic<std::uint64_t> cache_evictions;
extern std::atomic<std::uint64_t> parse_bytes;
extern std::atomic<std::uint64_t> intern_hits;
extern std::atomic<std::uint64_t> intern_misses;
extern std::atomic<std::uint64_t> frontend_allocs;
extern std::atomic<std::uint64_t> incr_regions;
extern std::atomic<std::uint64_t> incr_region_reuses;
extern std::atomic<std::uint64_t> incr_region_recomputes;
extern std::atomic<std::uint64_t> incr_canon_fallbacks;
}  // namespace detail

inline void count_matrix_alloc(std::size_t bytes) {
  detail::matrix_allocs.fetch_add(1, std::memory_order_relaxed);
  detail::matrix_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline void count_spmm(std::uint64_t flops) {
  detail::spmm_calls.fetch_add(1, std::memory_order_relaxed);
  detail::spmm_flops.fetch_add(flops, std::memory_order_relaxed);
}

inline void count_matmul(std::uint64_t flops) {
  detail::matmul_calls.fetch_add(1, std::memory_order_relaxed);
  detail::matmul_flops.fetch_add(flops, std::memory_order_relaxed);
}

inline void count_sample_cache_hit() {
  detail::sample_cache_hits.fetch_add(1, std::memory_order_relaxed);
}

inline void count_sample_cache_miss() {
  detail::sample_cache_misses.fetch_add(1, std::memory_order_relaxed);
}

inline void count_inference_cache_hit() {
  detail::inference_cache_hits.fetch_add(1, std::memory_order_relaxed);
}

inline void count_inference_cache_miss() {
  detail::inference_cache_misses.fetch_add(1, std::memory_order_relaxed);
}

/// Flushed once per find_subgraph_matches call with locally accumulated
/// totals (never per search state).
inline void count_vf2(std::uint64_t states, std::uint64_t sig_rejections) {
  detail::vf2_states.fetch_add(states, std::memory_order_relaxed);
  detail::vf2_sig_rejections.fetch_add(sig_rejections,
                                       std::memory_order_relaxed);
}

inline void count_vf2_pattern_skips(std::uint64_t n) {
  detail::vf2_pattern_skips.fetch_add(n, std::memory_order_relaxed);
}

inline void count_annotation_cache_hit() {
  detail::annotation_cache_hits.fetch_add(1, std::memory_order_relaxed);
}

inline void count_annotation_cache_miss() {
  detail::annotation_cache_misses.fetch_add(1, std::memory_order_relaxed);
}

inline void count_cache_eviction() {
  detail::cache_evictions.fetch_add(1, std::memory_order_relaxed);
}

inline void count_parse_bytes(std::uint64_t bytes) {
  detail::parse_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Flushed once per intern-heavy region (a parse, a flatten) with locally
/// accumulated totals -- never per lookup.
inline void count_intern(std::uint64_t hits, std::uint64_t misses) {
  detail::intern_hits.fetch_add(hits, std::memory_order_relaxed);
  detail::intern_misses.fetch_add(misses, std::memory_order_relaxed);
}

inline void count_frontend_alloc(std::uint64_t n = 1) {
  detail::frontend_allocs.fetch_add(n, std::memory_order_relaxed);
}

/// Flushed once per session run with the run's region totals (never per
/// region): how many regions the partition produced, how many were fully
/// served from the session's per-structure caches, and how many re-ran
/// GCN + VF2.
inline void count_incremental_regions(std::uint64_t regions,
                                      std::uint64_t reuses,
                                      std::uint64_t recomputes) {
  detail::incr_regions.fetch_add(regions, std::memory_order_relaxed);
  detail::incr_region_reuses.fetch_add(reuses, std::memory_order_relaxed);
  detail::incr_region_recomputes.fetch_add(recomputes,
                                           std::memory_order_relaxed);
}

inline void count_incremental_canon_fallback() {
  detail::incr_canon_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perf
}  // namespace gana
