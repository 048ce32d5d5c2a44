// dbn — command-line front end to the debruijn-routing library.
//
//   dbn route <d> <k> <X> <Y> [--algorithm=engine|uni|bfs] [--wildcards]
//   dbn distance <d> <k> <X> <Y>
//   dbn graph <d> <k> [--directed]
//   dbn export-dot <d> <k> [--directed] [--ranks]
//   dbn stats <d> <k>
//   dbn broadcast <d> <k> <root> [--single-port]
//   dbn sequence <d> <n> [--method=fkm|euler|greedy]
//   dbn kautz <d> <k> [<X> <Y>]
//   dbn simulate <d> <k> [--rate=R] [--duration=T]
//                [--policy=zero|random|lq|greedy|deflect|layer]
//   dbn serve <d> <k> [--stdio | --port=N] [--port-file=PATH]
//             [--backend=uni|bidi]
//
// Every command also accepts --trace-out=FILE (route spans / simulator
// events as trace/1 NDJSON, or Chrome trace_event JSON when FILE ends in
// ".json"), --metrics-out=FILE (metrics/1 snapshot of the global registry
// after the run), and --metrics-ts-out=FILE/--metrics-interval=MS (a
// metricsts/1 NDJSON timeline sampled in the background — the serve
// command's flight recorder). `dbn serve` additionally takes
// --trace-sample=N (trace 1-in-N requests end to end, deterministic in
// --trace-seed) and --slow-us=T (slow-request log threshold).
//
// Bi-directional routes (`route`, the default `engine` algorithm, and the
// source routes of `simulate`) come from BidirectionalRouteEngine.
#include <atomic>
#include <csignal>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/average_distance.hpp"
#include "core/bfs_router.hpp"
#include "core/distance.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "debruijn/bfs.hpp"
#include "debruijn/dot.hpp"
#include "debruijn/kautz_routing.hpp"
#include "debruijn/sequence.hpp"
#include "net/broadcast.hpp"
#include "net/load_stats.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "args.hpp"
#include "obs_flags.hpp"
#include "serve/io.hpp"
#include "serve/server.hpp"

namespace {

using namespace dbn;

void usage(std::ostream& out) {
  out << "usage:\n"
         "  dbn route <d> <k> <X> <Y> [--algorithm=engine|uni|bfs] "
         "[--wildcards]\n"
         "  dbn distance <d> <k> <X> <Y>\n"
         "  dbn graph <d> <k> [--directed]\n"
         "  dbn export-dot <d> <k> [--directed] [--ranks]\n"
         "  dbn stats <d> <k>\n"
         "  dbn broadcast <d> <k> <root> [--single-port]\n"
         "  dbn sequence <d> <n> [--method=fkm|euler|greedy]\n"
         "  dbn kautz <d> <k> [<X> <Y>]\n"
         "  dbn simulate <d> <k> [--rate=R] [--duration=T]\n"
         "               [--policy=zero|random|lq|greedy|deflect|layer]\n"
         "  dbn serve <d> <k> [--stdio | --port=N] [--port-file=PATH]\n"
         "            [--backend=uni|bidi] [--threads=N] [--queue=N]\n"
         "            [--batch=N] [--cache=N] [--wildcards]\n"
         "            [--trace-sample=N] [--trace-seed=S] [--slow-us=T]\n"
         "all commands accept --trace-out=FILE, --metrics-out=FILE,\n"
         "  --metrics-ts-out=FILE and --metrics-interval=MS\n"
         "words are digit strings, e.g. 0110\n";
}

// One command's command line: the <d> <k> positionals and the four
// observability flags every command shares, plus what the command declares
// on `parser` before it calls start().
struct Command {
  Command(std::string_view name, std::span<const std::string_view> argv)
      : parser("dbn " + std::string(name), 1, usage), args(argv) {
    parser.positional("<d>", d)
        .positional(name == "sequence" ? "<n>" : "<k>", k)
        .flag("--trace-out", trace_out)
        .flag("--metrics-out", metrics_out)
        .flag("--metrics-ts-out", metrics_ts_out)
        .flag("--metrics-interval", metrics_interval_ms,
              tools::parse_positive<double>);
  }

  /// Parses the command line and opens the observability outputs. Returns
  /// the status to exit with, or std::nullopt to run the command.
  std::optional<int> start() {
    if (const auto status = parser.parse(args)) {
      return status;
    }
    if (!obs_writer.setup(trace_out, metrics_out, metrics_ts_out,
                          metrics_interval_ms)) {
      return 1;
    }
    return std::nullopt;
  }

  std::uint32_t d = 0;
  std::size_t k = 0;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_ts_out;
  double metrics_interval_ms = 1000.0;
  tools::ArgParser parser;
  std::span<const std::string_view> args;
  tools::ObsWriter obs_writer;
};

int cmd_route(Command& cmd) {
  std::string x_text;
  std::string y_text;
  std::string algorithm = "engine";
  bool wildcards = false;
  cmd.parser.positional("<X>", x_text)
      .positional("<Y>", y_text)
      .flag("--algorithm", algorithm)
      .flag("--wildcards", wildcards);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const Word x = tools::parse_word(d, k, x_text);
  const Word y = tools::parse_word(d, k, y_text);
  const WildcardMode mode =
      wildcards ? WildcardMode::Wildcards : WildcardMode::Concrete;
  RoutingPath path;
  if (algorithm == "engine") {
    BidirectionalRouteEngine engine(k);
    engine.route_into(x, y, mode, path);
  } else if (algorithm == "uni") {
    path = route_unidirectional(x, y);
  } else if (algorithm == "bfs") {
    const DeBruijnGraph g(d, k, Orientation::Undirected);
    path = route_bfs(g, x, y);
  } else {
    std::cerr << "unknown algorithm: " << algorithm << " (engine|uni|bfs)\n";
    return 1;
  }
  std::cout << "route " << x.to_string() << " -> " << y.to_string() << " ["
            << algorithm << "]\n"
            << "path   " << path.to_string() << "\n"
            << "length " << path.length() << "\n";
  // Show the walk.
  Word at = x;
  std::cout << "walk   " << at.to_string();
  for (const Hop& h : path.hops()) {
    const Digit digit = h.is_wildcard() ? 0 : h.digit;
    at = h.type == ShiftType::Left ? at.left_shift(digit)
                                   : at.right_shift(digit);
    std::cout << " -> " << at.to_string();
  }
  std::cout << (path.has_wildcards() ? "   (wildcards resolved to 0)\n"
                                     : "\n");
  return 0;
}

int cmd_distance(Command& cmd) {
  std::string x_text;
  std::string y_text;
  cmd.parser.positional("<X>", x_text).positional("<Y>", y_text);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const Word x = tools::parse_word(d, k, x_text);
  const Word y = tools::parse_word(d, k, y_text);
  std::cout << "directed   D(X,Y) = " << directed_distance(x, y) << "\n"
            << "directed   D(Y,X) = " << directed_distance(y, x) << "\n"
            << "undirected D(X,Y) = " << undirected_distance(x, y) << "\n";
  return 0;
}

int cmd_graph(Command& cmd) {
  bool directed = false;
  cmd.parser.flag("--directed", directed);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const DeBruijnGraph g(
      d, k, directed ? Orientation::Directed : Orientation::Undirected);
  DBN_REQUIRE(g.vertex_count() <= 4096, "graph too large to print");
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    std::cout << g.word(v).to_string() << " ->";
    for (const std::uint64_t w : g.neighbors(v)) {
      std::cout << " " << g.word(w).to_string();
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_export_dot(Command& cmd) {
  bool directed = false;
  bool ranks = false;
  cmd.parser.flag("--directed", directed).flag("--ranks", ranks);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const DeBruijnGraph g(
      d, k, directed ? Orientation::Directed : Orientation::Undirected);
  std::cout << to_dot(g, /*word_labels=*/!ranks);
  return 0;
}

int cmd_broadcast(Command& cmd) {
  std::string root_text;
  bool single_port = false;
  cmd.parser.positional("<root>", root_text)
      .flag("--single-port", single_port);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const Word root = tools::parse_word(d, k, root_text);
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  const net::BroadcastTree tree = net::build_broadcast_tree(g, root.rank());
  const net::PortModel model =
      single_port ? net::PortModel::SinglePort : net::PortModel::AllPort;
  const net::BroadcastSchedule sched = net::schedule_broadcast(tree, model);
  std::cout << "broadcast from " << root.to_string() << " over DN(" << d
            << "," << k << "): completes in " << sched.completion
            << " rounds (" << sched.messages << " messages, tree height "
            << tree.height << ")\n";
  std::vector<std::uint64_t> per_round(
      static_cast<std::size_t>(sched.completion) + 1, 0);
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    ++per_round[static_cast<std::size_t>(sched.receive_round[v])];
  }
  for (std::size_t r = 0; r < per_round.size(); ++r) {
    std::cout << "  round " << r << ": " << per_round[r] << " site(s)\n";
  }
  return 0;
}

int cmd_sequence(Command& cmd) {
  std::string method = "fkm";
  cmd.parser.flag("--method", method);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t n = cmd.k;
  std::vector<Digit> seq;
  if (method == "fkm") {
    seq = de_bruijn_sequence(d, n);
  } else if (method == "euler") {
    seq = de_bruijn_sequence_hierholzer(d, n);
  } else if (method == "greedy") {
    seq = de_bruijn_sequence_greedy(d, n);
  } else {
    std::cerr << "unknown method: " << method << " (fkm|euler|greedy)\n";
    return 1;
  }
  std::cout << "B(" << d << "," << n << ") via " << method << " (length "
            << seq.size() << "):\n";
  for (const Digit x : seq) {
    std::cout << x;
  }
  std::cout << "\n";
  return 0;
}

int cmd_kautz(Command& cmd) {
  std::optional<std::string> x_text;
  std::optional<std::string> y_text;
  cmd.parser.positional("<X>", x_text).positional("<Y>", y_text);
  if (const auto status = cmd.start()) {
    return *status;
  }
  if (x_text && !y_text) {
    return cmd.parser.fail("missing <Y>");
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const KautzGraph g(d, k);
  if (x_text) {
    const Word x = tools::parse_word(d + 1, k, *x_text);
    const Word y = tools::parse_word(d + 1, k, *y_text);
    const RoutingPath path = kautz_route(g, x, y);
    std::cout << "K(" << d << "," << k << ") route " << x.to_string()
              << " -> " << y.to_string() << ": " << path.to_string()
              << " (distance " << path.length() << ")\n";
    return 0;
  }
  std::cout << "Kautz K(" << d << "," << k << "): " << g.vertex_count()
            << " vertices (vs " << Word::vertex_count(d, k)
            << " for DG(" << d << "," << k << ")), out-degree " << d
            << ", diameter " << k << "\n";
  return 0;
}

int cmd_stats(Command& cmd) {
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  const std::uint64_t n = Word::vertex_count(d, k);
  Table table({"quantity", "value"});
  table.add_row({"vertices", std::to_string(n)});
  table.add_row({"diameter", std::to_string(k)});
  table.add_row({"directed avg distance (exact)",
                 Table::num(directed_average_distance_exact(d, k), 4)});
  table.add_row({"directed avg distance (paper eq. 5)",
                 Table::num(directed_average_distance_closed_form(d, k), 4)});
  if (n <= 4096) {
    table.add_row({"undirected avg distance (exact)",
                   Table::num(undirected_average_exact_bfs(d, k), 4)});
  } else {
    Rng rng(1);
    table.add_row({"undirected avg distance (sampled)",
                   Table::num(undirected_average_sampled(d, k, 50000, rng), 4)});
  }
  table.print(std::cout, "");
  return 0;
}

int cmd_simulate(Command& cmd) {
  double rate = 0.1;
  double duration = 100.0;
  std::string policy = "random";
  cmd.parser.flag("--rate", rate, tools::parse_positive<double>)
      .flag("--duration", duration, tools::parse_positive<double>)
      .flag("--policy", policy);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  net::SimConfig config;
  config.radix = d;
  config.k = k;
  // zero|random|lq pick the wildcard policy of the paper's source-routed
  // scheme; greedy|deflect|layer switch the forwarding mode itself.
  if (policy == "greedy") {
    config.forwarding = net::ForwardingMode::HopByHop;
  } else if (policy == "deflect" || policy == "layer") {
    config.forwarding = net::ForwardingMode::Adaptive;
    config.adaptive_scoring = policy == "layer"
                                  ? net::AdaptiveScoring::LayerTable
                                  : net::AdaptiveScoring::Rescore;
  } else if (policy == "zero" || policy == "random" || policy == "lq") {
    config.wildcard_policy = policy == "zero" ? net::WildcardPolicy::Zero
                             : policy == "lq" ? net::WildcardPolicy::LeastQueue
                                              : net::WildcardPolicy::Random;
  } else {
    std::cerr << "unknown policy: " << policy
              << " (zero|random|lq|greedy|deflect|layer)\n";
    return 1;
  }
  net::Simulator sim(config);
  BidirectionalRouteEngine engine(k);
  Rng rng(42);
  for (const net::Injection& inj :
       net::uniform_traffic(d, k, rate, duration, rng)) {
    const Word src = Word::from_rank(d, k, inj.source);
    const Word dst = Word::from_rank(d, k, inj.destination);
    RoutingPath path;
    engine.route_into(src, dst, WildcardMode::Wildcards, path);
    sim.inject(inj.time, net::Message(net::ControlCode::Data, src, dst,
                                      std::move(path)));
  }
  sim.run();
  net::record_sim_metrics(obs::MetricsRegistry::global(), sim);
  const net::SimStats& s = sim.stats();
  Table table({"metric", "value"});
  table.add_row({"injected", std::to_string(s.injected)});
  table.add_row({"delivered", std::to_string(s.delivered)});
  table.add_row({"mean hops", Table::num(s.mean_hops(), 3)});
  table.add_row({"mean latency", Table::num(s.mean_latency(), 3)});
  table.add_row({"p99 latency", Table::num(s.latency_percentile(99), 3)});
  table.add_row({"max queue", std::to_string(s.max_queue)});
  table.add_row({"link load Gini",
                 Table::num(net::gini_coefficient(sim.link_transmissions()), 3)});
  table.print(std::cout, "DN(" + std::to_string(d) + "," + std::to_string(k) +
                             ") simulation, policy " + policy);
  return 0;
}

// Set by the SIGTERM/SIGINT handler; serve_tcp's accept loop polls it.
std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int /*signum*/) {
  g_serve_stop.store(true, std::memory_order_release);
}

int cmd_serve(Command& cmd) {
  serve::ServeConfig config;
  serve::TcpOptions tcp;
  std::string backend = "bidi";
  bool stdio = false;
  bool wildcards = false;
  cmd.parser.flag("--backend", backend)
      .flag("--stdio", stdio)
      .flag("--port", tcp.port)
      .flag("--port-file", tcp.port_file)
      .flag("--threads", config.threads)
      .flag("--queue", config.queue_capacity)
      .flag("--batch", config.max_batch)
      .flag("--cache", config.cache_entries)
      .flag("--wildcards", wildcards)
      .flag("--trace-sample", config.trace_sample)
      .flag("--trace-seed", config.trace_seed)
      .flag("--slow-us", config.slow_us);
  if (const auto status = cmd.start()) {
    return *status;
  }
  const std::uint32_t d = cmd.d;
  const std::size_t k = cmd.k;
  config.d = d;
  config.k = k;
  if (backend == "uni") {
    config.backend = BatchBackend::Alg1Directed;
  } else if (backend == "bidi") {
    config.backend = BatchBackend::BidiEngine;
  } else {
    std::cerr << "unknown backend: " << backend << " (uni|bidi)\n";
    return 1;
  }
  if (wildcards) {
    config.wildcard_mode = WildcardMode::Wildcards;
  }
  serve::RouteServer server(config);
  int rc = 0;
  if (stdio) {
    // stdin EOF is the drain signal in this mode; SIGTERM keeps its
    // default disposition (use the TCP mode for signal-driven drains).
    rc = serve::serve_stdio(server, std::cin, std::cout);
  } else {
    g_serve_stop.store(false);
    std::signal(SIGTERM, serve_stop_handler);
    std::signal(SIGINT, serve_stop_handler);
    std::cerr << "dbn serve: DN(" << d << "," << k << "), backend " << backend
              << ", queue " << config.queue_capacity << ", batch "
              << config.max_batch << "\n";
    rc = serve::serve_tcp(server, tcp, g_serve_stop);
  }
  const serve::ServeStats s = server.stats();
  std::cerr << "dbn serve: drained; " << s.requests << " requests, "
            << s.responses_ok << " ok, " << s.rejected_overload
            << " overloaded, " << s.rejected_bad_request << " bad, "
            << s.rejected_draining << " draining, " << s.protocol_errors
            << " protocol errors, " << s.batches << " batches, "
            << s.slow_requests << " slow\n";
  for (const serve::SlowRecord& slow : server.slow_log().records()) {
    std::cerr << "dbn serve: slow request id=" << slow.id << " conn="
              << slow.conn << " total_us=" << slow.total_us
              << " queue_us=" << slow.queue_us << " route_us="
              << slow.route_us << " batch=" << slow.batch_size << "\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    usage(std::cout);
    return 0;
  }
  using Run = int (*)(Command&);
  static constexpr std::pair<std::string_view, Run> kCommands[] = {
      {"route", cmd_route},         {"distance", cmd_distance},
      {"graph", cmd_graph},         {"export-dot", cmd_export_dot},
      {"broadcast", cmd_broadcast}, {"sequence", cmd_sequence},
      {"kautz", cmd_kautz},         {"stats", cmd_stats},
      {"simulate", cmd_simulate},   {"serve", cmd_serve}};
  for (const auto& [name, run] : kCommands) {
    if (args[0] != name) {
      continue;
    }
    try {
      Command command(name, std::span(args).subspan(1));
      return run(command);
    } catch (const dbn::ContractViolation& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  std::cerr << "unknown command: " << args[0] << "\n";
  usage(std::cerr);
  return 1;
}
