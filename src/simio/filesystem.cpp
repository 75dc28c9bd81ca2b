#include "simio/filesystem.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "sim/join.hpp"
#include "sim/trace.hpp"

namespace columbia::simio {

namespace {

inline void emit_io_span(sim::Engine& engine, int rank, double begin,
                         double end) {
  if (end <= begin) return;  // zero-length spans add nothing
  if (auto* sink = engine.span_sink()) {
    sink->on_span({rank, sim::SpanKind::Io, begin, end});
  }
}

/// Detached driver of an asynchronous write: run the transfer, then
/// signal completion. Keeps the request state alive via shared ownership
/// (the caller may drop the IoRequest early).
sim::Task drive_async_write(Filesystem* fs, int client_cpu,
                            std::uint64_t file_index, double bytes,
                            std::shared_ptr<IoRequest::State> state) {
  co_await fs->do_transfer(client_cpu, file_index, bytes, /*is_read=*/false);
  state->complete = true;
  state->done.fire();
}

}  // namespace

// ---------------------------------------------------------------------------
// Filesystem
// ---------------------------------------------------------------------------

Filesystem::Filesystem(sim::Engine& engine, machine::FilesystemSpec spec)
    : engine_(&engine),
      spec_(spec),
      metadata_(engine, 1),
      streaming_slots_(engine, std::max(1, spec.servers) * 4) {
  COL_REQUIRE(spec_.servers >= 1, "filesystem needs at least one server");
  COL_REQUIRE(spec_.aggregate_bw > 0.0 && spec_.per_client_bw > 0.0,
              "filesystem bandwidths must be positive");
  COL_REQUIRE(spec_.stripe_bytes > 0.0, "stripe_bytes must be positive");
  COL_REQUIRE(spec_.metadata_latency >= 0.0, "negative metadata latency");
  COL_REQUIRE(spec_.server_seek >= 0.0, "negative server seek");
  DiskSpec disk;
  disk.seek_latency = spec_.server_seek;
  disk.bandwidth = spec_.aggregate_bw / spec_.servers;
  servers_.reserve(static_cast<std::size_t>(spec_.servers));
  for (int s = 0; s < spec_.servers; ++s) {
    servers_.push_back(std::make_unique<Disk>(engine, disk, s));
  }
}

void Filesystem::set_network(machine::Network* network, int gateway_cpu) {
  COL_REQUIRE(network == nullptr || gateway_cpu >= 0,
              "filesystem gateway CPU out of range");
  network_ = network;
  gateway_cpu_ = network == nullptr ? -1 : gateway_cpu;
}

void Filesystem::set_fault_model(const machine::FaultModel* model) {
  fault_ = model;
  for (auto& server : servers_) server->set_fault_model(model);
}

File Filesystem::file(int client_cpu) {
  COL_REQUIRE(client_cpu >= 0, "client CPU out of range");
  return File(this, client_cpu, files_created_++);
}

sim::CoTask<void> Filesystem::do_open() {
  ++stats_.opens;
  co_await metadata_.acquire();
  co_await engine_->delay(spec_.metadata_latency);
  metadata_.release();
}

sim::CoTask<void> Filesystem::do_transfer(int client_cpu,
                                          std::uint64_t file_index,
                                          double bytes, bool is_read) {
  COL_REQUIRE(bytes >= 0.0, "negative transfer size");
  if (is_read) {
    ++stats_.reads;
    stats_.bytes_read += static_cast<std::uint64_t>(std::llround(bytes));
  } else {
    ++stats_.writes;
    stats_.bytes_written += static_cast<std::uint64_t>(std::llround(bytes));
  }
  if (bytes <= 0.0) co_return;
  co_await streaming_slots_.acquire();
  const double t0 = engine_->now();
  const double chunk = spec_.stripe_bytes;
  std::vector<sim::CoTask<void>> parts;
  double offset = 0.0;
  for (std::uint64_t i = 0; offset < bytes; ++i, offset += chunk) {
    const double piece = std::min(chunk, bytes - offset);
    // Client pacing: chunk i leaves (or is requested by) the client once
    // the stream has covered it at per_client_bw, so a lone client tops
    // out at its protocol ceiling and the backend sees a smooth arrival
    // train rather than one burst.
    const double eligible = t0 + (offset + piece) / spec_.per_client_bw;
    const int server =
        static_cast<int>((file_index + i) %
                         static_cast<std::uint64_t>(servers_.size()));
    parts.push_back(chunk_op(client_cpu, server, eligible, piece, is_read));
  }
  stats_.chunks += static_cast<std::uint64_t>(parts.size());
  co_await sim::when_all(*engine_, std::move(parts));
  streaming_slots_.release();
}

sim::CoTask<void> Filesystem::chunk_op(int client_cpu, int server,
                                       double eligible, double bytes,
                                       bool is_read) {
  const double now = engine_->now();
  if (eligible > now) co_await engine_->delay(eligible - now);
  const bool cross_fabric = network_ != nullptr && client_cpu != gateway_cpu_;
  if (is_read) {
    co_await servers_[static_cast<std::size_t>(server)]->access(bytes);
    if (cross_fabric) {
      co_await network_->transfer(gateway_cpu_, client_cpu, bytes);
    }
  } else {
    if (cross_fabric) {
      co_await network_->transfer(client_cpu, gateway_cpu_, bytes);
    }
    co_await servers_[static_cast<std::size_t>(server)]->access(bytes);
  }
}

// ---------------------------------------------------------------------------
// File
// ---------------------------------------------------------------------------

sim::CoTask<void> File::open() {
  COL_REQUIRE(!open_, "file already open");
  open_ = true;
  co_await fs_->do_open();
}

sim::CoTask<void> File::write(double bytes) {
  COL_REQUIRE(open_, "write on a file that is not open");
  co_await fs_->do_transfer(client_cpu_, file_index_, bytes,
                            /*is_read=*/false);
}

sim::CoTask<void> File::read(double bytes) {
  COL_REQUIRE(open_, "read on a file that is not open");
  co_await fs_->do_transfer(client_cpu_, file_index_, bytes,
                            /*is_read=*/true);
}

sim::CoTask<void> File::close() {
  COL_REQUIRE(open_, "close on a file that is not open");
  open_ = false;
  co_return;
}

sim::CoTask<void> File::open(simmpi::Rank& rank) {
  auto& engine = fs_->engine();
  const double t0 = engine.now();
  co_await open();
  rank.note_io_seconds(engine.now() - t0);
  emit_io_span(engine, rank.rank(), t0, engine.now());
}

sim::CoTask<void> File::write(simmpi::Rank& rank, double bytes) {
  auto& engine = fs_->engine();
  const double t0 = engine.now();
  co_await write(bytes);
  rank.note_io_seconds(engine.now() - t0);
  emit_io_span(engine, rank.rank(), t0, engine.now());
}

sim::CoTask<void> File::read(simmpi::Rank& rank, double bytes) {
  auto& engine = fs_->engine();
  const double t0 = engine.now();
  co_await read(bytes);
  rank.note_io_seconds(engine.now() - t0);
  emit_io_span(engine, rank.rank(), t0, engine.now());
}

sim::CoTask<void> File::close(simmpi::Rank& rank) {
  auto& engine = fs_->engine();
  const double t0 = engine.now();
  co_await close();
  rank.note_io_seconds(engine.now() - t0);
  emit_io_span(engine, rank.rank(), t0, engine.now());
}

IoRequest File::write_async(double bytes) {
  COL_REQUIRE(open_, "write on a file that is not open");
  IoRequest request;
  request.state_ = std::make_shared<IoRequest::State>(fs_->engine());
  fs_->engine().spawn(drive_async_write(fs_, client_cpu_, file_index_, bytes,
                                        request.state_));
  return request;
}

sim::CoTask<void> File::wait(IoRequest& request) {
  COL_REQUIRE(request.valid(), "wait on an invalid I/O request");
  if (!request.state_->complete) {
    co_await request.state_->done.wait();
  }
}

sim::CoTask<void> File::wait(simmpi::Rank& rank, IoRequest& request) {
  auto& engine = fs_->engine();
  const double t0 = engine.now();
  co_await wait(request);
  rank.note_io_seconds(engine.now() - t0);
  emit_io_span(engine, rank.rank(), t0, engine.now());
}

}  // namespace columbia::simio
