#pragma once
// Serving kernels: the device-side payloads behind each sched::JobKind.
//
// Each kind is a self-contained kernel that runs on an arbitrarily-placed
// workgroup (everything is group-relative) and stresses a distinct machine
// resource, so a mixed job stream resident on the mesh at the same time
// genuinely contends:
//
//   * Matmul  -- Cannon-style: per-block products (MatmulSchedule cycles)
//                with A/B block rotation over the mesh and a workgroup
//                barrier per step. Mesh-link traffic.
//   * Stencil -- the paper's heat stencil (core::stencil_kernel verbatim):
//                chained-DMA halo exchange + flag synchronisation.
//                DMA-engine and mesh traffic.
//   * Offload -- a parallel_for-shaped chunk: per-core compute, then the
//                result stripe streamed to shared DRAM in 2 KB blocks.
//                eLink-write and DRAM-window traffic.
//
// prepare_job also re-initialises the runtime-reserved scratchpad words
// (barrier slots, stencil flags) for the job's cores: in a serving system
// cores are *reused* across jobs, and a stale flag generation left by the
// previous occupant must not release a fresh kernel's synchronisation early.

#include <cstddef>

#include "arch/address_map.hpp"
#include "host/system.hpp"
#include "sched/job.hpp"

namespace epi::sched {

/// Shared-DRAM bytes the job's kernel will write (0 for on-chip-only kinds).
/// The scheduler reserves this from the System's shm bump allocator before
/// launch and hands the base address to prepare_job.
[[nodiscard]] std::size_t job_shm_bytes(const JobSpec& spec);

/// Initialise the group's core-side state for `spec` (runtime words, flag
/// generations) and return the kernel to load. `shm_base` is the job's
/// shared-DRAM region (only read when job_shm_bytes(spec) > 0).
[[nodiscard]] device::KernelFn prepare_job(host::System& sys, host::Workgroup& wg,
                                           const JobSpec& spec, arch::Addr shm_base);

// ---- fault-recovery result validation (offload jobs) ----------------------
// With a fault plan armed, the scheduler fills each offload core's source
// stripe with this deterministic pattern at launch and re-derives the
// expected shared-DRAM bytes at reap, so a bit flip anywhere on the
// scratch -> eLink -> DRAM path turns into a detected corrupt result (and a
// bounded re-execution) instead of silently wrong output.

[[nodiscard]] std::uint32_t offload_pattern_word(std::uint32_t job,
                                                 unsigned group_index,
                                                 std::uint32_t word) noexcept;

/// Write the per-core pattern stripes into the group's scratchpads.
void fill_offload_input(host::System& sys, host::Workgroup& wg, const JobSpec& spec);

/// Compare the job's DRAM stripes against the pattern the launcher wrote.
/// Empty on success; otherwise a description of the first mismatch.
[[nodiscard]] std::string verify_offload_output(host::System& sys, host::Workgroup& wg,
                                                const JobSpec& spec,
                                                arch::Addr shm_base);

// ---- shmem job validation (CannonMatmul / Transpose) -----------------------
// The comm-bound kinds carry seeded inputs (seed = spec.id) and a host
// reference, so the scheduler validates every completed shmem job at reap --
// not only under an armed fault plan. The symmetric-heap layout is re-derived
// deterministically from the spec, so no per-job state needs to survive the
// launch.

/// Empty on success; otherwise a description of the first mismatch.
[[nodiscard]] std::string verify_shmem_output(host::System& sys, host::Workgroup& wg,
                                              const JobSpec& spec);

}  // namespace epi::sched
