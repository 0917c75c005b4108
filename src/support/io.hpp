// Whole-file I/O, hoisted from the per-tool slurp/spill copies so every
// reader opens files in binary mode (the pipeline used to read sources in
// text mode while the tools read JSON in binary) and every writer actually
// checks the stream after flushing — a disk-full or closed-pipe write must
// surface as an error, not a silently truncated document. All failures
// throw sofia::Error naming the path (and errno's story when it has one).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sofia::io {

/// Read a file's entire contents (binary mode).
std::string read_file(const std::string& path);

/// Read a file's entire contents as raw bytes (binary mode).
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// Create/truncate `path` and write `content` (binary mode), then flush and
/// verify the stream state before reporting success.
void write_file(const std::string& path, std::string_view content);

/// Byte-vector convenience over write_file.
void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// write_file with the CLI "-" convention: path "-" streams `content` to
/// stdout (flushed and checked — a closed pipe is an error), anything else
/// is a write_file. The document-emitting tools (sofia_sweep, sofia_attack)
/// share this so their stdout contract cannot drift.
void emit_document(const std::string& path, std::string_view content);

}  // namespace sofia::io
