#include "machine/transport.hpp"

#include "sim/run_context.hpp"

namespace columbia::machine {

const char* to_string(TransportModel model) {
  return model == TransportModel::Flow ? "flow" : "event";
}

bool parse_transport(const std::string& name, TransportModel& model,
                     std::string& error) {
  if (name == "event") {
    model = TransportModel::Event;
    return true;
  }
  if (name == "flow") {
    model = TransportModel::Flow;
    return true;
  }
  error = "--transport expects 'event' or 'flow', got '" + name + "'";
  return false;
}

TransportModel context_transport() {
  const sim::RunContext* ctx = sim::current_run_context();
  return ctx != nullptr ? ctx->transport : TransportModel::Event;
}

}  // namespace columbia::machine
