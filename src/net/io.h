// Instance serialisation: Graphviz DOT export for inspection, and a
// line-based text format for saving/loading instances.
//
// Text format (one directive per line, '#' comments allowed):
//   vertices <n>
//   edge <from> <to> <latency-spec>
//   commodity <source> <sink> <demand>
// Latency specs mirror the factory functions:
//   constant <c>
//   affine <a> <b>
//   monomial <c> <d>
//   polynomial <k> <c0> ... <c_{k-1}>
//   shifted_linear <slope> <threshold>
//   pwl <k> <x0> <y0> ... <x_{k-1}> <y_{k-1}>
//   bpr <t0> <alpha> <capacity> <power>
//   mm1 <capacity>
// Commodities always use auto-enumerated path sets in this format.
#pragma once

#include <string>

#include "net/instance.h"

namespace staleflow {

/// Graphviz DOT rendering of the network with latency-function labels.
std::string to_dot(const Instance& instance);

/// Serialises an instance into the text format above. Round-trips with
/// parse_instance for all built-in latency families; throws
/// std::invalid_argument for latency functions the format cannot express
/// (e.g. user-defined classes).
std::string serialize_instance(const Instance& instance);

/// Parses the text format. Throws std::invalid_argument with a line
/// number on malformed input.
Instance parse_instance(const std::string& text);

/// Convenience file wrappers (throw std::runtime_error on I/O failure).
void save_instance(const Instance& instance, const std::string& path);
Instance load_instance(const std::string& path);

}  // namespace staleflow
