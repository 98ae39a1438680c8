#include "util/spec_parse.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

namespace staleflow {
namespace {

[[noreturn]] void bad_token(std::string_view kind, std::string_view text,
                            std::string_view what) {
  throw std::invalid_argument("bad " + std::string(kind) + " for " +
                              std::string(what) + ": '" + std::string(text) +
                              "'");
}

/// The whole text as one finite double. from_chars takes no leading
/// whitespace, leading '+' or hex in its general format; a '+' in the
/// exponent ("1e+3") is refused here, as '+' joins --faults clauses;
/// inf/nan and out-of-range literals fail the finiteness check or its
/// error code.
bool read_finite(std::string_view text, double& value) {
  if (text.find('+') != std::string_view::npos) return false;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  return error == std::errc{} && stop == end && std::isfinite(value);
}

}  // namespace

double parse_number(std::string_view text, std::string_view what) {
  double value = 0.0;
  if (!read_finite(text, value)) bad_token("number", text, what);
  return value;
}

std::uint64_t parse_count(std::string_view text, std::string_view what) {
  if (text.find_first_not_of("0123456789") == std::string_view::npos) {
    // Exact: a double would round seeds past 2^53.
    std::uint64_t exact = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), exact).ec ==
        std::errc{}) {
      return exact;
    }
  } else if (double value = 0.0; read_finite(text, value) && value >= 0.0 &&
                                 value < 0x1p64 &&
                                 value == std::floor(value)) {
    return static_cast<std::uint64_t>(value);
  }
  bad_token("count", text, what);
}

std::vector<std::string> split(std::string_view text,
                               std::string_view separators) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t stop = text.find_first_of(separators, start);
    items.emplace_back(text.substr(start, stop - start));
    if (stop == std::string_view::npos) return items;
    start = stop + 1;
  }
}

std::vector<std::string> split_nonempty(std::string_view text,
                                        std::string_view separators) {
  std::vector<std::string> items = split(text, separators);
  std::erase(items, std::string());
  return items;
}

}  // namespace staleflow
