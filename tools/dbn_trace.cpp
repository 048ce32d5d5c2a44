// dbn_trace — route one pair with tracing on and pretty-print the span tree.
//
//   dbn_trace <d> <k> <X> <Y> [--algorithm=engine|uni]
//             [--wildcards] [--trace-out=FILE] [--metrics-out=FILE]
//
// Routes X -> Y with a memory trace sink installed, then renders the
// recorded route span as an annotated tree: the span header (algorithm,
// shape, distance, the (s,t,theta) witness), followed by the hop events
// grouped into the paper's three-block decomposition — for a left-block
// route, L^(s-1) R^(k-theta) L^(k-t). Each hop line shows the shift kind,
// the digit shifted in, and the word reached.
//
// With --trace-out the same events are re-exported to FILE (trace/1
// NDJSON, or Chrome trace_event JSON when FILE ends in ".json");
// --metrics-out snapshots the global metrics registry.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "args.hpp"
#include "common/contract.hpp"
#include "common/schema.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "debruijn/word.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dbn;

void usage(std::ostream& out) {
  out << "usage:\n"
         "  dbn_trace <d> <k> <X> <Y> [--algorithm=engine|uni]\n"
         "            [--wildcards] [--trace-out=FILE] [--metrics-out=FILE]\n"
         "routes X -> Y with tracing enabled and prints the span tree;\n"
         "--trace-out writes "
      << dbn::schema::kTrace
      << " NDJSON (Chrome JSON if FILE ends in \".json\")\n";
}

const std::string* find_arg(const std::vector<obs::TraceArg>& args,
                            std::string_view key) {
  for (const obs::TraceArg& a : args) {
    if (a.key == key) {
      return &a.value;
    }
  }
  return nullptr;
}

std::string arg_or(const std::vector<obs::TraceArg>& args,
                   std::string_view key, std::string fallback) {
  const std::string* v = find_arg(args, key);
  return v != nullptr ? *v : fallback;
}

/// Reconstructs the walk from the hop instants so each hop line can show
/// the word reached (wildcard digits resolve to 0, as in `dbn route`).
Word apply_hop(const Word& at, const std::vector<obs::TraceArg>& hop_args) {
  const std::string shift = arg_or(hop_args, "shift", "L");
  const std::string digit_text = arg_or(hop_args, "digit", "0");
  const std::optional<Digit> digit =
      digit_text == "*" ? Digit{0} : tools::parse_number<Digit>(digit_text);
  DBN_REQUIRE(digit.has_value(), "hop event digit is not a number");
  return shift == "L" ? at.left_shift(*digit) : at.right_shift(*digit);
}

/// Pretty-prints one route span: header from the End event's args, hops
/// grouped by their `block` argument.
void print_route_span(std::uint32_t d, std::size_t k, const Word& x,
                      const obs::TraceEvent& end,
                      const std::vector<const obs::TraceEvent*>& hops) {
  std::cout << "span route  " << arg_or(end.args, "x", "?") << " -> "
            << arg_or(end.args, "y", "?") << "  in DG(" << d << "," << k
            << ")  [" << arg_or(end.args, "algo", "?") << "]\n";
  std::cout << "|  shape    " << arg_or(end.args, "shape", "?")
            << "   distance " << arg_or(end.args, "distance", "?") << "\n";
  if (const std::string* witness = find_arg(end.args, "witness")) {
    std::cout << "|  witness  " << *witness << "   (s=" << arg_or(end.args, "s", "?")
              << ", t=" << arg_or(end.args, "t", "?")
              << ", theta=" << arg_or(end.args, "theta", "?") << ")\n";
  }
  std::cout << "|  blocks   " << arg_or(end.args, "blocks", "(empty)") << "\n";

  Word at = x;
  std::string current_block;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const obs::TraceEvent& hop = *hops[i];
    const std::string block = arg_or(hop.args, "block", "?") + "  " +
                              arg_or(hop.args, "role", "?");
    if (block != current_block) {
      current_block = block;
      std::cout << "+- block " << block << "\n";
    }
    at = apply_hop(at, hop.args);
    std::cout << "|    hop " << static_cast<std::uint64_t>(hop.ts) << "  "
              << arg_or(hop.args, "shift", "?") << " "
              << arg_or(hop.args, "digit", "?") << "  -> " << at.to_string()
              << "\n";
  }
  std::cout << "'- end  reached " << at.to_string() << " in " << hops.size()
            << " hop(s)\n";
}

/// Re-exports the captured events to FILE: Chrome trace_event JSON when the
/// name ends in ".json", trace/1 NDJSON otherwise.
bool export_events(const std::string& path,
                   const std::vector<obs::TraceEvent>& events) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "error: cannot open trace output " << path << "\n";
    return false;
  }
  std::unique_ptr<obs::TraceSink> sink;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    sink = std::make_unique<obs::ChromeTraceSink>(out);
  } else {
    sink = std::make_unique<obs::NdjsonTraceSink>(out);
  }
  for (const obs::TraceEvent& event : events) {
    sink->emit(event);
  }
  return true;
}

int run(const std::vector<std::string_view>& args) {
  std::uint32_t d = 0;
  std::size_t k = 0;
  std::string x_text;
  std::string y_text;
  std::string algorithm = "engine";
  bool wildcards = false;
  std::string trace_out;
  std::string metrics_out;
  tools::ArgParser parser("dbn_trace", 1, usage);
  parser.positional("<d>", d)
      .positional("<k>", k)
      .positional("<X>", x_text)
      .positional("<Y>", y_text)
      .flag("--algorithm", algorithm)
      .flag("--wildcards", wildcards)
      .flag("--trace-out", trace_out)
      .flag("--metrics-out", metrics_out);
  if (const auto status = parser.parse(args)) {
    return *status;
  }
  DBN_REQUIRE(d >= 2, "radix must be at least 2");
  DBN_REQUIRE(k >= 1, "diameter must be at least 1");
  const Word x = tools::parse_word(d, k, x_text);
  const Word y = tools::parse_word(d, k, y_text);
  const WildcardMode mode =
      wildcards ? WildcardMode::Wildcards : WildcardMode::Concrete;

  obs::MemoryTraceSink memory;
  obs::set_trace_sink(&memory);
  RoutingPath path;
  if (algorithm == "engine") {
    BidirectionalRouteEngine engine(k);
    engine.route_into(x, y, mode, path);
  } else if (algorithm == "uni") {
    path = route_unidirectional(x, y);
  } else {
    obs::set_trace_sink(nullptr);
    std::cerr << "unknown algorithm: " << algorithm << " (engine|uni)\n";
    return 1;
  }
  obs::set_trace_sink(nullptr);

  const std::vector<obs::TraceEvent> events = memory.events();

  // Group: for each route span, its End event carries the args and its
  // hop instants carry the block decomposition.
  bool printed = false;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != obs::TracePhase::End || event.name != "route") {
      continue;
    }
    std::vector<const obs::TraceEvent*> hops;
    for (const obs::TraceEvent& child : events) {
      if (child.phase == obs::TracePhase::Instant &&
          child.span == event.span && child.name == "hop") {
        hops.push_back(&child);
      }
    }
    print_route_span(d, k, x, event, hops);
    printed = true;
  }
  if (!printed) {
    std::cout << "no route span recorded (" << events.size() << " events)\n";
  }
  std::cout << "path   " << path.to_string() << "\n"
            << "length " << path.length() << "\n";

  if (!trace_out.empty()) {
    if (!export_events(trace_out, events)) {
      return 1;
    }
    std::cout << "trace written to " << trace_out << " (" << events.size()
              << " events)\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary);
    if (!out) {
      std::cerr << "error: cannot open metrics output " << metrics_out << "\n";
      return 1;
    }
    out << obs::MetricsRegistry::global().snapshot().to_json();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage(std::cout);
    return 0;
  }
  try {
    return run(args);
  } catch (const dbn::ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
