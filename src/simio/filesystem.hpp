#pragma once
/// \file filesystem.hpp
/// The shared-filesystem model: striped server disks + a metadata server,
/// driven through a coroutine-awaitable File API.
///
/// A `Filesystem` expands a machine::FilesystemSpec into discrete-event
/// resources:
///   * `servers` Disks of aggregate_bw/servers each — transfers are split
///     into stripe_bytes chunks round-robined across them from a per-file
///     base, so files land on different servers and queue FIFO where they
///     collide;
///   * a capacity-1 metadata Resource every open holds for
///     metadata_latency (opens serialize, the closed form's
///     metadata_latency * nclients term);
///   * a streaming-slot Resource of capacity servers*4 held for a whole
///     transfer — the "clients that can stream concurrently before the
///     backend serializes" ceiling of the spec;
///   * client pacing: chunk i only leaves the client once the stream has
///     produced it at per_client_bw, so an uncontended client tops out at
///     its protocol ceiling exactly like the closed form's min().
/// With `set_network` attached (the NFS-over-10GigE stopgap), every chunk
/// additionally crosses the fabric between the client CPU and the gateway
/// CPU through machine::Network — contention and fault verdicts ride the
/// TransportModel seam like any other transfer.
///
/// Where this diverges from machine::IoModel::write_time, and why: the
/// closed form *adds* the metadata and data phases; here different
/// clients overlap them (one client streams while another opens), so
/// under contention the simulated makespan tracks
/// max(metadata pipeline, backend busy time) plus startup/tail instead of
/// the sum. The closed form is an upper bound; tests/test_simio.cpp pins
/// both the sandwich and the uncontended configuration where the bound is
/// tight (the last client's open wait equals the full metadata term).
///
/// Rank-attributed operations (the simmpi::Rank& overloads) additionally
/// emit sim::SpanKind::Io spans and feed Rank::note_io_seconds, so ranks
/// block on I/O exactly like communication and simprof's io_s column,
/// critical path, and Gantt output light up.
///
/// Determinism contract: all state lives on one engine; resources are
/// FIFO; fault queries are pure functions of (server, time). Same
/// (spec, program, seed) => byte-identical timelines.

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/fault.hpp"
#include "machine/io_model.hpp"
#include "machine/network.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"
#include "simio/disk.hpp"
#include "simmpi/world.hpp"

namespace columbia::simio {

class File;
class Filesystem;

/// Filesystem counters (pure accounting: reading them cannot change a
/// run).
struct IoStats {
  std::uint64_t opens = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t chunks = 0;  ///< stripe-unit accesses issued to server disks
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

/// Handle for an asynchronous file operation (the I/O analogue of
/// simmpi::Request). Move-only; complete it with File::wait.
class IoRequest {
 public:
  IoRequest() = default;
  IoRequest(IoRequest&&) noexcept = default;
  IoRequest& operator=(IoRequest&&) noexcept = default;
  IoRequest(const IoRequest&) = delete;
  IoRequest& operator=(const IoRequest&) = delete;

  bool valid() const { return state_ != nullptr; }
  /// True once the operation finished.
  bool test() const { return state_ != nullptr && state_->complete; }

  /// Internal completion record (public so the detached driver in the
  /// implementation can reach it; not part of the user API).
  struct State {
    explicit State(sim::Engine& e) : done(e) {}
    sim::Trigger done;
    bool complete = false;
  };

 private:
  friend class File;
  std::shared_ptr<State> state_;
};

/// One file of a Filesystem, owned by a single simulated client.
/// Lifecycle: open -> write/read (possibly async) -> close. The raw
/// overloads charge engine time only; the simmpi::Rank& overloads also
/// account the blocked time to the rank and emit SpanKind::Io spans.
class File {
 public:
  /// Charges the metadata round trip (opens serialize filesystem-wide).
  sim::CoTask<void> open();
  /// Striped, paced, queued write of `bytes`.
  sim::CoTask<void> write(double bytes);
  /// Same shape, reading.
  sim::CoTask<void> read(double bytes);
  /// Free: the close piggybacks on the open's metadata round trip
  /// (write-behind flush); the spec's metadata_latency charges the pair.
  sim::CoTask<void> close();

  // Rank-attributed variants: identical timing, plus Io span emission and
  // Rank::note_io_seconds accounting.
  sim::CoTask<void> open(simmpi::Rank& rank);
  sim::CoTask<void> write(simmpi::Rank& rank, double bytes);
  sim::CoTask<void> read(simmpi::Rank& rank, double bytes);
  sim::CoTask<void> close(simmpi::Rank& rank);

  /// Starts the write on a detached engine task and returns immediately —
  /// the I/O-vs-compute overlap primitive. The caller must File::wait the
  /// request before closing the file.
  IoRequest write_async(double bytes);
  /// Blocks until `request` completes.
  sim::CoTask<void> wait(IoRequest& request);
  /// Blocked-time-only accounting: a fully overlapped write costs the
  /// rank nothing.
  sim::CoTask<void> wait(simmpi::Rank& rank, IoRequest& request);

 private:
  friend class Filesystem;
  File(Filesystem* fs, int client_cpu, std::uint64_t file_index)
      : fs_(fs), client_cpu_(client_cpu), file_index_(file_index) {}

  Filesystem* fs_;
  int client_cpu_;
  std::uint64_t file_index_;  ///< stripe placement base (creation order)
  bool open_ = false;
};

class Filesystem {
 public:
  /// Expands `spec` into server disks + metadata/streaming resources on
  /// `engine`.
  Filesystem(sim::Engine& engine, machine::FilesystemSpec spec);
  Filesystem(const Filesystem&) = delete;
  Filesystem& operator=(const Filesystem&) = delete;

  const machine::FilesystemSpec& spec() const { return spec_; }
  sim::Engine& engine() const { return *engine_; }

  /// Routes every chunk across the fabric between the client CPU and
  /// `gateway_cpu` (the NFS-over-10GigE path; chunks of a client already
  /// on the gateway CPU stay local). Off by default — the
  /// shared-parallel FC fabric is not the compute fabric. The network
  /// must outlive the filesystem.
  void set_network(machine::Network* network, int gateway_cpu);

  /// Degrades the server disks through `model`'s storage queries
  /// (disk indices 0..servers-1); nullptr restores clean service. Pass a
  /// World's fault_model() so `--faults` composes. Must outlive this.
  void set_fault_model(const machine::FaultModel* model);

  /// Creates a handle for a client pinned to `client_cpu`. Stripe bases
  /// rotate with creation order so concurrent files start on different
  /// servers.
  File file(int client_cpu);

  const machine::FaultModel* fault_model() const { return fault_; }

  // --- accounting -----------------------------------------------------------
  const IoStats& stats() const { return stats_; }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  const Disk& server(int i) const { return *servers_[static_cast<std::size_t>(i)]; }

  // --- internal (used by File and its detached async driver) ----------------
  sim::CoTask<void> do_open();
  sim::CoTask<void> do_transfer(int client_cpu, std::uint64_t file_index,
                                double bytes, bool is_read);

 private:
  sim::CoTask<void> chunk_op(int client_cpu, int server, double eligible,
                             double bytes, bool is_read);

  sim::Engine* engine_;
  machine::FilesystemSpec spec_;
  sim::Resource metadata_;
  sim::Resource streaming_slots_;
  std::vector<std::unique_ptr<Disk>> servers_;
  machine::Network* network_ = nullptr;
  int gateway_cpu_ = -1;
  const machine::FaultModel* fault_ = nullptr;
  std::uint64_t files_created_ = 0;
  IoStats stats_;
};

}  // namespace columbia::simio
