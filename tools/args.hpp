// The command-line parser of every tool (dbn, dbn_trace, dbn_loadgen,
// dbn_top, dbn_bench, dbn_fuzz, dbn_chaos).
//
// A tool declares its positionals and flags, each bound to the variable it
// fills, then calls parse() once. The rules are the same in every tool:
//   - a flag that takes a value accepts "--name=value" and "--name value"
//     (in the second form the value must not start with "--");
//   - a bool target is a switch, given as a bare "--name";
//   - a number parses whole into its target's type (parse_number);
//   - an unknown flag, a missing value, a stray or missing positional and a
//     bad value are usage errors: the message names the argument, the
//     usage text goes to stderr, and parse() returns the tool's usage
//     status;
//   - "--help" or "-h" prints the usage text on stdout; parse() returns 0.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "debruijn/word.hpp"

namespace dbn::tools {

// A number parsed whole into T: it must start with a digit (no sign, space,
// "inf" or "nan"), end with the number, and fit T.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

// parse_number for periods and rates, which must be positive: a zero
// period or rate would spin or never finish.
template <typename T>
std::optional<T> parse_positive(std::string_view text) {
  const std::optional<T> value = parse_number<T>(text);
  return value && *value > T{} ? value : std::nullopt;
}

// A word of DG(d, k) written as a digit string, e.g. "0110" for
// (0,1,1,0); digits above 9 cannot be written (the library has no such
// limit).
inline Word parse_word(std::uint32_t d, std::size_t k, std::string_view text) {
  DBN_REQUIRE(text.size() == k, "word has wrong length for this network");
  std::vector<Digit> digits;
  digits.reserve(text.size());
  for (const char c : text) {
    DBN_REQUIRE(c >= '0' && c <= '9', "word digits must be 0-9");
    digits.push_back(static_cast<Digit>(c - '0'));
  }
  return Word(d, std::move(digits));
}

class ArgParser {
 public:
  using Usage = void (*)(std::ostream&);

  /// `tool` starts every message, `usage` prints the usage text, and
  /// `usage_status` is what parse() returns on a usage error.
  ArgParser(std::string tool, int usage_status, Usage usage)
      : tool_(std::move(tool)), usage_status_(usage_status), usage_(usage) {}

  /// Declares the next positional. A std::optional target may be left out,
  /// and so may every positional after it.
  template <typename T>
  ArgParser& positional(std::string_view name, T& target) {
    positionals_.push_back(
        Binding{std::string(name), !IsOptional<T>::value, setter(target)});
    return *this;
  }

  /// Declares a flag. A bool target is a switch; a std::vector<std::string>
  /// keeps every value given; any other target takes the last value given.
  template <typename T>
  ArgParser& flag(std::string_view name, T& target) {
    flags_.push_back(
        Binding{std::string(name), !std::is_same_v<T, bool>, setter(target)});
    return *this;
  }

  /// Declares a flag whose value `convert` maps to the target's value; a
  /// std::nullopt from it is a bad value.
  template <typename T, typename Convert>
  ArgParser& flag(std::string_view name, T& target, Convert convert) {
    flags_.push_back(
        Binding{std::string(name), true, converter(target, convert)});
    return *this;
  }

  /// Fills the bound targets from argv (program name excluded). Returns
  /// std::nullopt when the tool should run, else the status to exit with.
  std::optional<int> parse(std::span<const std::string_view> args) const {
    for (const std::string_view arg : args) {
      if (arg == "--help" || arg == "-h") {
        usage_(std::cout);
        return 0;
      }
    }
    std::size_t next = 0;  // the next positional to fill
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string_view arg = args[i];
      if (arg.size() < 2 || arg[0] != '-') {
        if (next == positionals_.size()) {
          return fail("unexpected argument '" + std::string(arg) + "'");
        }
        const Binding& positional = positionals_[next++];
        if (!positional.set(arg)) {
          return bad_value(positional.name, arg);
        }
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string name(arg.substr(0, eq));
      const Binding* flag = find_flag(name);
      if (flag == nullptr) {
        return fail("unknown flag " + name);
      }
      std::optional<std::string_view> value;
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (flag->needs_value && i + 1 < args.size() &&
                 !args[i + 1].starts_with("--")) {
        value = args[++i];
      }
      if (!flag->needs_value) {
        if (value) {
          return fail(name + " takes no value");
        }
        flag->set({});
      } else if (!value) {
        return fail(name + " needs a value");
      } else if (!flag->set(*value)) {
        return bad_value(name, *value);
      }
    }
    if (next < positionals_.size() && positionals_[next].needs_value) {
      return fail("missing " + positionals_[next].name);
    }
    return std::nullopt;
  }

  /// Reports a usage error the tool finds after parse(): the message, then
  /// the usage text, on stderr. Returns the usage status.
  int fail(std::string_view message) const {
    std::cerr << tool_ << ": " << message << "\n";
    usage_(std::cerr);
    return usage_status_;
  }

 private:
  using Setter = std::function<bool(std::string_view)>;

  // A declared argument. For a flag, needs_value says it takes a value; for
  // a positional, that it must be given.
  struct Binding {
    std::string name;
    bool needs_value;
    Setter set;
  };

  template <typename T>
  struct IsOptional : std::false_type {};
  template <typename T>
  struct IsOptional<std::optional<T>> : std::true_type {};

  template <typename T>
  static std::optional<T> from_text(std::string_view text) {
    if constexpr (std::is_same_v<T, std::string>) {
      return std::string(text);
    } else {
      return parse_number<T>(text);
    }
  }

  template <typename T, typename Convert>
  static Setter converter(T& target, Convert convert) {
    return [&target, convert](std::string_view text) {
      auto value = convert(text);
      if (!value) {
        return false;
      }
      target = std::move(*value);
      return true;
    };
  }

  template <typename T>
  static Setter setter(T& target) {
    if constexpr (std::is_same_v<T, bool>) {
      return [&target](std::string_view) {
        target = true;
        return true;
      };
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      return [&target](std::string_view text) {
        target.emplace_back(text);
        return true;
      };
    } else if constexpr (IsOptional<T>::value) {
      return converter(target, from_text<typename T::value_type>);
    } else {
      return converter(target, from_text<T>);
    }
  }

  const Binding* find_flag(std::string_view name) const {
    for (const Binding& flag : flags_) {
      if (flag.name == name) {
        return &flag;
      }
    }
    return nullptr;
  }

  int bad_value(std::string_view name, std::string_view value) const {
    return fail("bad value for " + std::string(name) + ": '" +
                std::string(value) + "'");
  }

  std::string tool_;
  int usage_status_;
  Usage usage_;
  std::vector<Binding> positionals_;
  std::vector<Binding> flags_;
};

}  // namespace dbn::tools
