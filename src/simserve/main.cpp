// simserve: persistent scenario-evaluation daemon over the registry.
//
//   $ ./simserve --port 7077           # TCP daemon on 127.0.0.1:7077
//   $ ./simserve --port 0              # ephemeral port (printed on stderr)
//   $ ./simserve --stdin < reqs.ndjson # pipe mode: serve stdin, exit at EOF
//   $ ./simserve --jobs 8 --port 7077  # evaluation parallelism
//
// Protocol: newline-delimited JSON both ways (see protocol.hpp). An eval
// request names a core::ScenarioSpec — the same schema run_experiment's
// flags fill — and streams back a queued acknowledgment followed by the
// result bytes run_experiment would have printed for that spec, byte for
// byte. Results are cached by canonical spec hash and duplicate in-flight
// specs coalesce onto one evaluation, so a fleet of clients regenerating
// the same tables costs one run each.
//
// Exit: 0 after a client {"op":"shutdown"} (or stdin EOF in pipe mode),
// 2 on usage or bind errors.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/run_options.hpp"
#include "simserve/eval.hpp"
#include "simserve/server.hpp"
#include "simserve/service.hpp"

int main(int argc, char** argv) {
  using namespace columbia;

  int port = 7077;
  bool use_stdin = false;
  int jobs = 0;
  core::RunOptionsParser parser("simserve", "[options]");
  parser.add_flag("--port", "<n>",
                  "TCP port to listen on, 127.0.0.1 only (0 = ephemeral; "
                  "default 7077)",
                  [&port](const std::string& v, std::string& error) {
                    char* end = nullptr;
                    const long n = std::strtol(v.c_str(), &end, 10);
                    if (end == v.c_str() || *end != '\0' || n < 0 ||
                        n > 65535) {
                      error = "--port expects an integer in [0, 65535]";
                      return false;
                    }
                    port = static_cast<int>(n);
                    return true;
                  });
  parser.add_flag("--stdin", "",
                  "serve newline-delimited JSON requests from stdin "
                  "instead of TCP; exit at EOF",
                  [&use_stdin](const std::string&, std::string&) {
                    use_stdin = true;
                    return true;
                  });
  parser.add_flag("--jobs", "<n>",
                  "evaluation worker threads (default: host CPUs)",
                  [&jobs](const std::string& v, std::string& error) {
                    return core::parse_positive_int("--jobs", v, jobs, error);
                  });
  core::RunOptions opts;
  if (!parser.parse(argc, argv, opts)) return 2;
  if (opts.help) return 0;

  simserve::Service::Options sopts;
  sopts.jobs = jobs;
  simserve::Service service(simserve::registry_eval(), sopts);

  if (use_stdin) {
    simserve::serve_stream(std::cin, std::cout, service,
                           simserve::registry_ids);
    return 0;
  }

  simserve::TcpServer server(service, simserve::registry_ids);
  std::string error;
  if (!server.start(port, error)) {
    std::fprintf(stderr, "simserve: %s\n", error.c_str());
    return 2;
  }
  std::fprintf(stderr, "simserve: listening on 127.0.0.1:%d\n",
               server.port());
  server.wait();
  server.stop();
  return 0;
}
