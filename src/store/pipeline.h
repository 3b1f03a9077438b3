// Bounded multi-stripe store pipeline.
//
// run_pipeline() streams `chunks` stripes through three stages over a ring
// of `depth` in-flight slots (slot = chunk % depth):
//
//   read     sequential, issued in chunk order on the calling thread
//            (chunk-file readers are stateful; input CRCs chain here);
//   process  concurrent, one pool task per in-flight chunk — this is
//            where codec work runs, one stripe per task: the in-flight
//            stripes are the only source of codec parallelism;
//   write    sequential, committed in strict chunk order as processed
//            chunks reach the head of the ring (appends and output CRC
//            chains live here).
//
// The calling thread blocks (backpressure) when the ring is full.  Depth 1
// degenerates to read/process/write fully serialized per chunk — exactly
// the pre-pipeline streaming behavior — so crash-consistency and
// fault-injection semantics are depth-independent: the on-disk mutation
// sequence is the ordered write stage at every depth.
//
// Failure semantics match the old sequential loop: the first failure in
// (chunk, stage) order wins and is returned (or rethrown, for stages that
// throw).  Reads stop at the failing chunk, no write at or after the
// failure's key executes, and writes of earlier chunks still complete.
// Failed slots are handed to stages.reset before being retired so
// half-filled staging buffers can never leak into a reuse.
//
// Observability (src/obs):
//   store.pipeline.depth       gauge    resolved depth of the last pipeline
//   store.pipeline.in_flight   gauge    chunks read but not yet retired
//   store.pipeline.stall_read  counter  reader blocked on a full ring
//   store.pipeline.stall_write counter  processed chunk blocked behind an
//                                       unfinished earlier chunk
#pragma once

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "store/io_backend.h"

namespace approx::store {

struct PipelineStages {
  // Required.  Fill slot `slot` with chunk `chunk`'s input.
  std::function<IoStatus(std::uint64_t chunk, int slot)> read;
  // Required.  Transform slot `slot` in place; runs concurrently with
  // other chunks' process stages, so it may touch only slot-local state.
  std::function<IoStatus(std::uint64_t chunk, int slot)> process;
  // Optional.  Commit slot `slot`'s output; strictly ordered by chunk.
  std::function<IoStatus(std::uint64_t chunk, int slot)> write;
  // Optional.  Poison/clear a slot whose stage failed (before retirement).
  std::function<void(int slot)> reset;
};

// Number of ring slots to use: `requested` when positive, else the
// APPROX_PIPELINE_DEPTH environment variable, else pool-sized (clamped to
// [2, 8]).  The result is always in [1, 64].
int resolve_pipeline_depth(int requested, const ThreadPool& pool);

// Snapshot the pool's two-level queue depths into the
// "pool.queue.interactive" / "pool.queue.bulk" gauges (plus the
// "pool.aged_bulk_pops" counter-backed gauge).  The pool itself lives
// below obs in the layering, so store-side pipelines publish for it;
// called on every run_pipeline entry and cheap enough to call ad hoc
// (stats paths, benches).
void publish_pool_gauges(const ThreadPool& pool);

// Run the pipeline.  Returns the first failing status in (chunk, stage)
// order, or success.  Exceptions thrown by stages are rethrown on the
// calling thread with the same ordering.
IoStatus run_pipeline(ThreadPool& pool, std::uint64_t chunks, int depth,
                      const PipelineStages& stages);

}  // namespace approx::store
