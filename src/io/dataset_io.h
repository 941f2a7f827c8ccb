#ifndef UFIM_IO_DATASET_IO_H_
#define UFIM_IO_DATASET_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/uncertain_database.h"

namespace ufim {

/// Text format for uncertain databases, one transaction per line:
///
///   item:prob item:prob ...
///
/// e.g. `0:0.8 1:0.2 2:0.9`. This is the interchange format for all
/// examples and tools. The grammar:
///
///   - Lines end at '\n'. A line that is empty or starts with '#' is
///     skipped. A line of only whitespace is an empty transaction.
///   - Units are separated by runs of whitespace (space, \t, \v, \f, \r,
///     so CRLF files read like LF files).
///   - `item` is decimal digits only: no sign, no space. A file's ids are
///     at most kMaxItemId (16777215, see core/types.h); a single line
///     given to ParseTransactionLine may use the whole ItemId range.
///   - `prob` is a decimal number in [0,1] as std::from_chars reads it:
///     digits with an optional '.' and an optional exponent (`.5`, `5e-1`
///     and `0.50` are all 0.5). No sign (not even `-0`), no hex float
///     (`0x1p-1`), no `inf` and no `nan`. A value that underflows to zero
///     (`1e-400`) is rejected; a subnormal one (`1e-310`) is kept.
///   - An item appears at most once per line. Units may come in any
///     order; a unit with probability 0 is dropped.
///
/// Anything else is InvalidArgument; ReadDataset prefixes the message
/// with "line N: ".

/// Writes `db` to `path`. Overwrites an existing file.
Status WriteDataset(const UncertainDatabase& db, const std::string& path);

/// Reads a database from `path`. Malformed units produce InvalidArgument
/// with a line number; I/O failures produce IOError.
Result<UncertainDatabase> ReadDataset(const std::string& path);

/// Serializes/parses a single transaction line (exposed for tests).
std::string FormatTransactionLine(const Transaction& t);
Result<Transaction> ParseTransactionLine(const std::string& line);

}  // namespace ufim

#endif  // UFIM_IO_DATASET_IO_H_
