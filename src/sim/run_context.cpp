#include "sim/run_context.hpp"

namespace columbia::sim {

namespace {
thread_local RunContext* g_run_context = nullptr;
}  // namespace

// simlint:seam(cross-rank-shared-mutable): the installed context is thread_local (one per host thread, like the current-engine pointer) and its arming is fixed before it is installed; readers only take factories and the transport from it at construction.
RunContext* current_run_context() { return g_run_context; }

RunScope::RunScope(RunContext* ctx) : prev_(g_run_context) {
  g_run_context = ctx;
}

RunScope::~RunScope() { g_run_context = prev_; }

}  // namespace columbia::sim
