#include "simmpi/observer.hpp"

namespace columbia::simmpi {

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::Barrier: return "barrier";
    case CollOp::Bcast: return "bcast";
    case CollOp::Reduce: return "reduce";
    case CollOp::Allreduce: return "allreduce";
    case CollOp::AllreduceSum: return "allreduce_sum";
    case CollOp::Alltoall: return "alltoall";
    case CollOp::Allgather: return "allgather";
    case CollOp::AllgatherValues: return "allgather_values";
    case CollOp::AlltoallValues: return "alltoall_values";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ObserverFanout
// ---------------------------------------------------------------------------

void ObserverFanout::on_send_posted(std::uint64_t id, int rank, int dst,
                                    int tag, double bytes, bool rendezvous) {
  for (auto* c : children_)
    c->on_send_posted(id, rank, dst, tag, bytes, rendezvous);
}
void ObserverFanout::on_send_completed(std::uint64_t id) {
  for (auto* c : children_) c->on_send_completed(id);
}
void ObserverFanout::on_recv_posted(std::uint64_t id, int rank, int src,
                                    int tag) {
  for (auto* c : children_) c->on_recv_posted(id, rank, src, tag);
}
void ObserverFanout::on_recv_matched(std::uint64_t recv_id,
                                     std::uint64_t send_id,
                                     const std::vector<Candidate>& eligible) {
  for (auto* c : children_) c->on_recv_matched(recv_id, send_id, eligible);
}
void ObserverFanout::on_recv_delivered(std::uint64_t id) {
  for (auto* c : children_) c->on_recv_delivered(id);
}
void ObserverFanout::on_recv_completed(std::uint64_t id) {
  for (auto* c : children_) c->on_recv_completed(id);
}
void ObserverFanout::on_request_posted(int rank, std::uint64_t serial,
                                       bool is_send, int peer, int tag) {
  for (auto* c : children_)
    c->on_request_posted(rank, serial, is_send, peer, tag);
}
void ObserverFanout::on_request_waited(int rank, std::uint64_t serial) {
  for (auto* c : children_) c->on_request_waited(rank, serial);
}
void ObserverFanout::on_collective(int rank, CollOp op, int root,
                                   double bytes) {
  for (auto* c : children_) c->on_collective(rank, op, root, bytes);
}
void ObserverFanout::on_rank_finished(int rank) {
  for (auto* c : children_) c->on_rank_finished(rank);
}
void ObserverFanout::on_finalize() {
  for (auto* c : children_) c->on_finalize();
}

}  // namespace columbia::simmpi
