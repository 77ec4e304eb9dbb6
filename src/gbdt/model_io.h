// Model serialization: a line-oriented text format so trained ensembles can
// be saved, shipped to an inference service (or a Booster device image),
// and reloaded. The format is versioned and self-describing; round-tripping
// is exact for the quantities that matter (bin thresholds are integral,
// weights are serialized with full double precision).
//
// Format:
//   booster-model v1
//   base_score <double>
//   loss <name>
//   trees <count>
//   tree <index> nodes <count>
//   node <id> leaf <weight>
//   node <id> split <field> <kind> <threshold_bin> <default_left> <left> <right>
// For artifacts that cross an unreliable boundary (files handed to a
// serving process, shipped between machines) the *checked container*
// wraps the v1 text in a one-line header carrying the payload length and
// a CRC-32 over the payload bytes -- the same end-to-end discipline as
// the ipc::HistogramCodec wire format:
//   booster-model-container v1 bytes <N> crc32 <8 hex digits>
//   <N payload bytes: exactly the v1 text above>
// Checked loads validate magic, version, length, and checksum *before*
// parsing, and report a distinct ModelFileStatus per failure mode instead
// of aborting -- serve::ModelSlot keeps serving the old model on anything
// but kOk.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "gbdt/tree.h"

namespace booster::gbdt {

/// Writes the model to a stream; throws nothing, reports via stream state.
void save_model(const Model& model, std::ostream& out);

/// Saves to a file; returns false on I/O failure.
bool save_model_file(const Model& model, const std::string& path);

/// Parses a model from a stream. Aborts (BOOSTER_CHECK) on malformed input
/// -- model files are trusted artifacts produced by save_model.
Model load_model(std::istream& in);

/// Loads from a file; aborts if the file cannot be opened or parsed.
Model load_model_file(const std::string& path);

/// Why a checked container load was refused. Every mode is distinct so
/// operators (and tests) can tell a wrong file from a torn write from
/// bit rot.
enum class ModelFileStatus : std::uint8_t {
  kOk = 0,
  kIoError,      // cannot open / read the file at all
  kBadMagic,     // not a booster-model-container header
  kBadVersion,   // container version this build does not speak
  kTruncated,    // payload shorter than the header's byte count
  kBadChecksum,  // CRC-32 mismatch over the payload bytes
};

/// Stable lowercase name for logs and error responses
/// ("ok" / "io-error" / "bad-magic" / ...).
const char* model_file_status_name(ModelFileStatus status);

/// Writes the checked container (header + v1 payload + CRC).
void save_model_checked(const Model& model, std::ostream& out);

/// Saves the checked container to a file; returns false on I/O failure.
/// Crash-safe replace: the container is written to a sibling temp file,
/// fsync'd, renamed over `path`, and the directory is fsync'd, so `path`
/// always holds either the old model or the new one, never a torn write.
/// A reader that opened the old file keeps reading the old model.
bool save_model_checked_file(const Model& model, const std::string& path);

/// Validates the container header and checksum, then parses the payload.
/// On kOk, `*out` holds the model; on any failure `*out` is untouched and
/// the status says which integrity check failed. Never aborts on a bad
/// container (the payload parse still aborts on a corrupt *payload that
/// passes its CRC*, which cannot happen by accident).
ModelFileStatus load_model_checked(std::istream& in,
                                   std::optional<Model>* out);

/// File form of load_model_checked; kIoError when the file cannot be
/// opened.
ModelFileStatus load_model_checked_file(const std::string& path,
                                        std::optional<Model>* out);

}  // namespace booster::gbdt
