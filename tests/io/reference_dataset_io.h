#ifndef UFIM_TESTS_IO_REFERENCE_DATASET_IO_H_
#define UFIM_TESTS_IO_REFERENCE_DATASET_IO_H_

// The line-at-a-time dataset parser that ReadDataset used before the
// buffer tokenizer: getline, one istringstream per line, one std::string
// per token, then strtoull/strtod. It is kept only as the oracle of the
// differential tests; src/io/ has one parser.
//
// Deliberate differences from the library parser (the differential test
// classifies every disagreement into one of these):
//   - a '+' or '-' before the probability ("+0.5", "-0") is accepted here,
//     rejected by the library;
//   - a hex float probability ("0x1p-1") is accepted here, rejected by
//     the library;
//   - a subnormal probability ("1e-310") is rejected here, because strtod
//     flags it with ERANGE, and accepted by the library;
//   - ReadDataset bounds a file's ids by kMaxItemId; this ReadDataset
//     takes the whole ItemId range.

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/transaction.h"
#include "core/uncertain_database.h"

namespace ufim::reference {

inline Result<Transaction> ParseTransactionLine(const std::string& line) {
  std::vector<ProbItem> units;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size()) {
      return Status::InvalidArgument("malformed unit '" + token +
                                     "' (expected item:prob)");
    }
    const bool digits =
        std::all_of(token.begin(), token.begin() + colon,
                    [](char c) { return c >= '0' && c <= '9'; });
    errno = 0;
    char* end = nullptr;
    const unsigned long long item = std::strtoull(token.c_str(), &end, 10);
    if (!digits || errno != 0 || end != token.c_str() + colon) {
      return Status::InvalidArgument("malformed item id in '" + token + "'");
    }
    if (item > std::numeric_limits<ItemId>::max()) {
      return Status::InvalidArgument("item id out of range in '" + token +
                                     "'");
    }
    errno = 0;
    const double prob = std::strtod(token.c_str() + colon + 1, &end);
    if (errno != 0 || end != token.c_str() + token.size()) {
      return Status::InvalidArgument("malformed probability in '" + token + "'");
    }
    if (!(prob >= 0.0 && prob <= 1.0)) {
      return Status::InvalidArgument("probability out of [0,1] in '" + token +
                                     "'");
    }
    units.push_back(ProbItem{static_cast<ItemId>(item), prob});
  }
  std::vector<ItemId> ids;
  ids.reserve(units.size());
  for (const ProbItem& u : units) ids.push_back(u.item);
  std::sort(ids.begin(), ids.end());
  const auto repeated = std::adjacent_find(ids.begin(), ids.end());
  if (repeated != ids.end()) {
    return Status::InvalidArgument("item " + std::to_string(*repeated) +
                                   " appears more than once");
  }
  return Transaction(std::move(units));
}

inline Result<UncertainDatabase> ReadDataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::vector<Transaction> txns;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    Result<Transaction> t = ParseTransactionLine(line);
    if (!t.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     t.status().message());
    }
    txns.push_back(std::move(t).value());
  }
  return UncertainDatabase(std::move(txns));
}

}  // namespace ufim::reference

#endif  // UFIM_TESTS_IO_REFERENCE_DATASET_IO_H_
