/**
 * @file
 * Umbrella header: the public API of the memwall library.
 *
 * memwall reproduces "Missing the Memory Wall: The Case for
 * Processor/Memory Integration" (Saulsbury, Pong & Nowatzyk,
 * ISCA 1996). The central abstraction is PimDevice — a simple CPU
 * integrated onto a multi-banked DRAM whose column buffers act as
 * caches — plus the evaluation machinery the paper used around it:
 * trace/execution-driven cache simulation, GSPN CPI models, and an
 * execution-driven CC-NUMA multiprocessor simulator.
 *
 * Quick start:
 * @code
 *   #include "core/memwall.hh"
 *   using namespace memwall;
 *
 *   PimDevice device;                       // the paper's design point
 *   SyntheticWorkload gcc(findWorkload("126.gcc").proxy);
 *   double cpi = device.runWorkload(gcc, 10'000'000);
 * @endcode
 */

#ifndef MEMWALL_CORE_MEMWALL_HH
#define MEMWALL_CORE_MEMWALL_HH

// Foundations
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

// Memory substrate
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/column_cache.hh"
#include "mem/dram.hh"
#include "mem/ecc.hh"
#include "mem/hierarchy.hh"
#include "mem/victim_cache.hh"

// Reference streams and workloads
#include "trace/ref.hh"
#include "trace/relayout.hh"
#include "trace/stride_walker.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "workloads/missrate.hh"
#include "workloads/spec_eval.hh"
#include "workloads/spec_suite.hh"

// CPU and CPI models
#include "cpu/cpi_model.hh"
#include "cpu/pipeline.hh"
#include "gspn/models.hh"
#include "gspn/petri_net.hh"
#include "gspn/simulator.hh"

// The MW32 execution-driven front end
#include "isa/assembler.hh"
#include "isa/instruction.hh"
#include "isa/interpreter.hh"
#include "isa/opcodes.hh"

// I/O agents (Section 8)
#include "io/framebuffer.hh"
#include "io/refresh.hh"

// Interconnect, coherence and the multiprocessor runtime
#include "coherence/directory.hh"
#include "coherence/inc.hh"
#include "coherence/numa.hh"
#include "coherence/protocol.hh"
#include "interconnect/fabric.hh"
#include "interconnect/link.hh"
#include "mp/scheduler.hh"
#include "mp/shared.hh"
#include "mp/sync.hh"
#include "workloads/splash/splash.hh"

// The integrated device
#include "core/pim_device.hh"

// Parallel experiment harness
#include "harness/parallel_sweep.hh"
#include "harness/thread_pool.hh"

#endif // MEMWALL_CORE_MEMWALL_HH
