// Paper tables as pure functions of a sofia-sweep document, so unsharded,
// merged, fleet and cache-warm runs print the same table. Numbers come from
// the records' integer counts, never from the rounded "overhead" doubles.
#pragma once

#include <cstdio>

#include "support/json.hpp"

namespace sofia::driver {

/// Print the table named by the document's "sweep" ("-smoke" suffix
/// ignored) to `out`, after a blank line: nothing when the matrix has none,
/// a one-line notice when a job failed. Every record is checked before
/// anything is printed: a wrong schema, or a job record that lacks a member
/// the table reads or holds one of the wrong type, throws sofia::Error
/// naming the member.
void print_table(const json::Value& document, std::FILE* out);

/// sofia_sweep's verdict on a whole sweep document (a run's or a merge's):
/// print its table to `out` and return the tool's exit code, 0 when every
/// job is ok and 1 when one failed.
int verdict(const json::Value& document, std::FILE* out);

/// A horizontal rule of `width` dashes, for the bench and report tables.
void print_rule(int width = 78, std::FILE* out = stdout);

}  // namespace sofia::driver
