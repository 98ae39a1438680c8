// What a number is, for every flag and spec grammar.
//
// A token means the same thing in `--period`, a `--tenants` field, a
// workload or policy parameter, a `--faults` window and a sweep axis
// list: decimal or exponent notation as std::from_chars reads it — the
// whole text, no leading whitespace, no '+' anywhere, no hex — and
// finite. A count is such a number that is integral, >= 0 and < 2^64,
// so "1e6" is a count and "1.5", "-1" and "1e30" are not. Range checks
// that belong to one grammar (alpha > 0, for >= 1, ...) stay with that
// grammar.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace staleflow {

/// A finite double. Throws std::invalid_argument naming `what` and the
/// text otherwise.
double parse_number(std::string_view text, std::string_view what);

/// A count (see above). All-digit text converts exactly, so 64-bit seeds
/// round-trip. Throws std::invalid_argument naming `what` and the text.
std::uint64_t parse_count(std::string_view text, std::string_view what);

/// Splits `text` at every character in `separators`, keeping empty
/// items: "a,,b" -> {"a", "", "b"} and "" -> {""}. Each grammar decides
/// what an empty item means.
std::vector<std::string> split(std::string_view text,
                               std::string_view separators);

/// split() without the empty items: the list grammars (sweep axis lists,
/// --tenants) read "a,,b" as {"a", "b"} and "" as {}.
std::vector<std::string> split_nonempty(std::string_view text,
                                        std::string_view separators);

}  // namespace staleflow
