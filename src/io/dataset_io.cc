#include "io/dataset_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace ufim {

std::string FormatTransactionLine(const Transaction& t) {
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%u:%.17g", i == 0 ? "" : " ",
                  t[i].item, t[i].prob);
    out += buf;
  }
  return out;
}

Result<Transaction> ParseTransactionLine(const std::string& line) {
  std::vector<ProbItem> units;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size()) {
      return Status::InvalidArgument("malformed unit '" + token +
                                     "' (expected item:prob)");
    }
    // Digits only: strtoull alone would accept a sign ("-1" wraps to the
    // largest value) and leading whitespace.
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
    // Negated in-range test so that NaN (every comparison false) fails.
    if (!(prob >= 0.0 && prob <= 1.0)) {
      return Status::InvalidArgument("probability out of [0,1] in '" + token +
                                     "'");
    }
    units.push_back(ProbItem{static_cast<ItemId>(item), prob});
  }
  // A repeated item has no single probability, so the line is rejected
  // rather than collapsed by the Transaction constructor's keep-last rule.
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

Status WriteDataset(const UncertainDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  for (const Transaction& t : db) {
    out << FormatTransactionLine(t) << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<UncertainDatabase> ReadDataset(const std::string& path) {
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

}  // namespace ufim
