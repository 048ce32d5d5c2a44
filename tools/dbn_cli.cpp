// dbn — command-line front end to the debruijn-routing library.
//
//   dbn route <d> <k> <X> <Y> [--algorithm=engine|uni|bfs] [--wildcards]
//   dbn distance <d> <k> <X> <Y>
//   dbn graph <d> <k> [--directed]
//   dbn export-dot <d> <k> [--directed] [--ranks]
//   dbn stats <d> <k>
//   dbn broadcast <d> <k> <root> [--single-port]
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
//
// <d> and <k> must parse whole as unsigned numbers. Words are digit
// strings, e.g. "0110" for (0,1,1,0); digits above 9 are not supported on
// the command line (the library itself has no such limit). Exit status 0
// on success, 1 on usage errors.
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
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
#include "obs_flags.hpp"
#include "parse_number.hpp"
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

std::optional<std::string_view> flag_value(
    const std::vector<std::string_view>& args, std::string_view name) {
  const std::string prefix = std::string(name) + "=";
  for (const std::string_view a : args) {
    if (a.starts_with(prefix)) {
      return a.substr(prefix.size());
    }
  }
  return std::nullopt;
}

bool has_flag(const std::vector<std::string_view>& args,
              std::string_view name) {
  for (const std::string_view a : args) {
    if (a == name) {
      return true;
    }
  }
  return false;
}

Word parse_word(std::uint32_t d, std::size_t k, std::string_view text) {
  DBN_REQUIRE(text.size() == k, "word has wrong length for this network");
  std::vector<Digit> digits;
  digits.reserve(text.size());
  for (const char c : text) {
    DBN_REQUIRE(c >= '0' && c <= '9', "word digits must be 0-9");
    digits.push_back(static_cast<Digit>(c - '0'));
  }
  return Word(d, std::move(digits));
}

int cmd_route(std::uint32_t d, std::size_t k,
              const std::vector<std::string_view>& args) {
  DBN_REQUIRE(args.size() >= 2, "route needs <X> and <Y>");
  const Word x = parse_word(d, k, args[0]);
  const Word y = parse_word(d, k, args[1]);
  const std::string algorithm =
      std::string(flag_value(args, "--algorithm").value_or("engine"));
  const WildcardMode mode = has_flag(args, "--wildcards")
                                ? WildcardMode::Wildcards
                                : WildcardMode::Concrete;
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

int cmd_distance(std::uint32_t d, std::size_t k,
                 const std::vector<std::string_view>& args) {
  DBN_REQUIRE(args.size() >= 2, "distance needs <X> and <Y>");
  const Word x = parse_word(d, k, args[0]);
  const Word y = parse_word(d, k, args[1]);
  std::cout << "directed   D(X,Y) = " << directed_distance(x, y) << "\n"
            << "directed   D(Y,X) = " << directed_distance(y, x) << "\n"
            << "undirected D(X,Y) = " << undirected_distance(x, y) << "\n";
  return 0;
}

int cmd_graph(std::uint32_t d, std::size_t k,
              const std::vector<std::string_view>& args) {
  const Orientation o = has_flag(args, "--directed")
                            ? Orientation::Directed
                            : Orientation::Undirected;
  const DeBruijnGraph g(d, k, o);
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

int cmd_export_dot(std::uint32_t d, std::size_t k,
                   const std::vector<std::string_view>& args) {
  const Orientation o = has_flag(args, "--directed")
                            ? Orientation::Directed
                            : Orientation::Undirected;
  const DeBruijnGraph g(d, k, o);
  std::cout << to_dot(g, /*word_labels=*/!has_flag(args, "--ranks"));
  return 0;
}

int cmd_broadcast(std::uint32_t d, std::size_t k,
                  const std::vector<std::string_view>& args) {
  DBN_REQUIRE(!args.empty(), "broadcast needs a <root> word");
  const Word root = parse_word(d, k, args[0]);
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  const net::BroadcastTree tree = net::build_broadcast_tree(g, root.rank());
  const net::PortModel model = has_flag(args, "--single-port")
                                   ? net::PortModel::SinglePort
                                   : net::PortModel::AllPort;
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

int cmd_sequence(std::uint32_t d, std::size_t n,
                 const std::vector<std::string_view>& args) {
  const std::string method =
      std::string(flag_value(args, "--method").value_or("fkm"));
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

int cmd_kautz(std::uint32_t d, std::size_t k,
              const std::vector<std::string_view>& args) {
  const KautzGraph g(d, k);
  if (args.size() >= 2) {
    const Word x = parse_word(d + 1, k, args[0]);
    const Word y = parse_word(d + 1, k, args[1]);
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

int cmd_stats(std::uint32_t d, std::size_t k) {
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

int cmd_simulate(std::uint32_t d, std::size_t k,
                 const std::vector<std::string_view>& args) {
  // --rate and --duration parse whole and must be positive: an infinite
  // rate would schedule messages forever.
  const auto positive_flag = [&args](std::string_view name,
                                     double fallback) -> std::optional<double> {
    const auto v = flag_value(args, name);
    if (!v) {
      return fallback;
    }
    const auto parsed = tools::parse_number<double>(*v);
    if (!parsed || *parsed <= 0.0) {
      std::cerr << "dbn simulate: bad value for " << name << ": '" << *v
                << "'\n";
      return std::nullopt;
    }
    return parsed;
  };
  const std::optional<double> rate = positive_flag("--rate", 0.1);
  const std::optional<double> duration = positive_flag("--duration", 100.0);
  if (!rate || !duration) {
    return 1;
  }
  const std::string policy =
      std::string(flag_value(args, "--policy").value_or("random"));
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
       net::uniform_traffic(d, k, *rate, *duration, rng)) {
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

int cmd_serve(std::uint32_t d, std::size_t k,
              const std::vector<std::string_view>& args) {
  serve::ServeConfig config;
  config.d = d;
  config.k = k;
  const std::string backend =
      std::string(flag_value(args, "--backend").value_or("bidi"));
  if (backend == "uni") {
    config.backend = BatchBackend::Alg1Directed;
  } else if (backend == "bidi") {
    config.backend = BatchBackend::BidiEngine;
  } else {
    std::cerr << "unknown backend: " << backend << " (uni|bidi)\n";
    return 1;
  }
  // Each numeric flag parses whole into its field's type, or the command
  // fails before the server is built.
  bool flags_ok = true;
  const auto num_flag = [&args, &flags_ok](std::string_view name,
                                           auto& target) {
    const auto v = flag_value(args, name);
    if (!v) {
      return;
    }
    const auto parsed =
        tools::parse_number<std::remove_reference_t<decltype(target)>>(*v);
    if (!parsed) {
      std::cerr << "dbn serve: bad value for " << name << ": '" << *v
                << "'\n";
      flags_ok = false;
      return;
    }
    target = *parsed;
  };
  serve::TcpOptions tcp;
  num_flag("--threads", config.threads);
  num_flag("--queue", config.queue_capacity);
  num_flag("--batch", config.max_batch);
  num_flag("--cache", config.cache_entries);
  num_flag("--trace-sample", config.trace_sample);
  num_flag("--trace-seed", config.trace_seed);
  num_flag("--slow-us", config.slow_us);
  num_flag("--port", tcp.port);
  if (!flags_ok) {
    return 1;
  }
  if (has_flag(args, "--wildcards")) {
    config.wildcard_mode = WildcardMode::Wildcards;
  }
  serve::RouteServer server(config);
  int rc = 0;
  if (has_flag(args, "--stdio")) {
    // stdin EOF is the drain signal in this mode; SIGTERM keeps its
    // default disposition (use the TCP mode for signal-driven drains).
    rc = serve::serve_stdio(server, std::cin, std::cout);
  } else {
    tcp.port_file = std::string(flag_value(args, "--port-file").value_or(""));
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
  std::vector<std::string_view> args(argv + 1, argv + argc);
  if (args.size() < 3) {
    usage(args.empty() ? std::cout : std::cerr);
    return args.empty() ? 0 : 1;
  }
  dbn::tools::ObsWriter obs_writer;
  try {
    const std::string_view command = args[0];
    // <d> and <k> parse whole, like every numeric flag: "4x" is a usage
    // error, not a 4.
    const auto d_arg = tools::parse_number<std::uint32_t>(args[1]);
    const auto k_arg = tools::parse_number<std::size_t>(args[2]);
    if (!d_arg || !k_arg) {
      const bool bad_d = !d_arg;
      std::cerr << "dbn: bad value for "
                << (bad_d ? "<d>" : command == "sequence" ? "<n>" : "<k>")
                << ": '" << args[bad_d ? 1 : 2] << "'\n";
      usage(std::cerr);
      return 1;
    }
    const std::uint32_t d = *d_arg;
    const std::size_t k = *k_arg;
    const std::vector<std::string_view> rest(args.begin() + 3, args.end());
    const std::string interval_text =
        std::string(flag_value(rest, "--metrics-interval").value_or("1000"));
    if (!obs_writer.setup(
            std::string(flag_value(rest, "--trace-out").value_or("")),
            std::string(flag_value(rest, "--metrics-out").value_or("")),
            std::string(flag_value(rest, "--metrics-ts-out").value_or("")),
            std::atof(interval_text.c_str()))) {
      return 1;
    }
    if (command == "route") {
      return cmd_route(d, k, rest);
    }
    if (command == "distance") {
      return cmd_distance(d, k, rest);
    }
    if (command == "graph") {
      return cmd_graph(d, k, rest);
    }
    if (command == "export-dot") {
      return cmd_export_dot(d, k, rest);
    }
    if (command == "broadcast") {
      return cmd_broadcast(d, k, rest);
    }
    if (command == "sequence") {
      return cmd_sequence(d, k, rest);
    }
    if (command == "kautz") {
      return cmd_kautz(d, k, rest);
    }
    if (command == "stats") {
      return cmd_stats(d, k);
    }
    if (command == "simulate") {
      return cmd_simulate(d, k, rest);
    }
    if (command == "serve") {
      return cmd_serve(d, k, rest);
    }
    std::cerr << "unknown command: " << command << "\n";
    usage(std::cerr);
    return 1;
  } catch (const dbn::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
