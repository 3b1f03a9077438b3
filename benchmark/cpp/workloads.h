// The four approx_bench workloads.  Every workload reports the same
// end-to-end metric set, each measured on its own deployment:
//
//   setup_s              median over repeated set-ups of the environment
//   ingest_mib_s         whole-object write (encode_file / cluster put)
//   readback_mib_s       whole-object read of a healthy object
//   degraded_read_mib_s  the same read with one data node's chunk file gone
//   repair_mib_s         scrub + rebuild of that node
//   read_p50_ms, read_p95_ms   latency of the workload's read requests
//
// plus peak_rss_mib, which the parent takes from the child's rusage.  What
// differs is the path under test:
//
//   bulk_local          local store, one closed-loop client, no cache, no
//                       network: the pipeline stages, CRC, syscalls and
//                       the codec carry all of the work;
//   serve_tcp_degraded  coordinator + 4 storage daemons over localhost TCP,
//                       one chunk file lost, cache off, open-loop 64 KiB
//                       Zipf reads: every read fans out into chunk RPCs
//                       plus a degraded decode;
//   serve_hot_cached    local, one node lost, a read cache half the size of
//                       the volume, open-loop 1 MiB Zipf(1.0) segment
//                       reads: hits set the median, degraded fills the tail;
//   mixed_bulk_serve    local, no cache, three open-loop readers of 1 MiB
//                       segments beside one thread looping the bulk
//                       lifecycle: interactive and bulk work share the pool.
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace approx::bench {

const std::vector<std::string>& workload_names();

// Run ctx.cfg.workload in this process, filling ctx.report.
void run_workload(Ctx& ctx);

}  // namespace approx::bench
