#include "io/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>

namespace ufim {

namespace {

/// The whitespace of std::isspace in the "C" locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The unit starting at `begin`: every byte up to the next whitespace.
std::string_view UnitAt(const char* begin, const char* end) {
  const char* e = begin;
  while (e != end && !IsSpace(*e)) ++e;
  return {begin, static_cast<std::size_t>(e - begin)};
}

Status BadUnit(std::string_view what, std::string_view unit) {
  std::string msg(what);
  msg += " in '";
  msg += unit;
  msg += '\'';
  return Status::InvalidArgument(std::move(msg));
}

/// The one tokenizer: parses the units of `line` into `units` (cleared
/// first), rejecting ids above `max_item`. The grammar is in
/// dataset_io.h.
Status ParseUnits(std::string_view line, ItemId max_item,
                  std::vector<ProbItem>& units) {
  units.clear();
  bool increasing = true;
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    while (p != end && IsSpace(*p)) ++p;
    if (p == end) break;
    const char* const begin = p;
    // One pass over the unit: each from_chars stops at the first byte it
    // does not take, so the unit's end is looked for only to quote it in
    // an error. Unsigned from_chars takes digits only: no sign, no space.
    std::uint64_t item = 0;
    const auto [colon, item_ec] = std::from_chars(begin, end, item);
    if (item_ec != std::errc() || colon == end || *colon != ':' ||
        colon + 1 == end || IsSpace(colon[1])) {
      // The unit's shape is checked before its id, so "1:" and ":5" are
      // malformed units while "1x:0.5" has a malformed id.
      const std::string_view unit = UnitAt(begin, end);
      const char* const first_colon =
          static_cast<const char*>(std::memchr(begin, ':', unit.size()));
      if (first_colon == nullptr || first_colon == begin ||
          first_colon + 1 == begin + unit.size()) {
        return Status::InvalidArgument("malformed unit '" + std::string(unit) +
                                       "' (expected item:prob)");
      }
      return BadUnit("malformed item id", unit);
    }
    if (item > std::numeric_limits<ItemId>::max()) {
      return BadUnit("item id out of range", UnitAt(begin, end));
    }
    if (item > max_item) {
      return BadUnit(
          "item id above the largest loadable id " + std::to_string(max_item),
          UnitAt(begin, end));
    }
    // from_chars takes a '-' (and so "-0") but never a '+'; reject both.
    // Its general format reads no hex, and it reports underflow to zero
    // and overflow as out of range.
    double prob = 0.0;
    const auto [prob_end, prob_ec] = std::from_chars(colon + 1, end, prob);
    if (colon[1] == '+' || colon[1] == '-' || prob_ec != std::errc() ||
        (prob_end != end && !IsSpace(*prob_end))) {
      return BadUnit("malformed probability", UnitAt(begin, end));
    }
    // Negated in-range test so that NaN (every comparison false) fails.
    if (!(prob >= 0.0 && prob <= 1.0)) {
      return BadUnit("probability out of [0,1]", UnitAt(begin, end));
    }
    p = prob_end;
    const auto id = static_cast<ItemId>(item);
    if (!units.empty() && id <= units.back().item) increasing = false;
    units.push_back(ProbItem{id, prob});
  }
  // A repeated item has no single probability, so the line is rejected
  // rather than collapsed by the Transaction constructor's keep-last rule.
  // Strictly increasing ids cannot repeat.
  if (!increasing) {
    std::vector<ItemId> ids;
    ids.reserve(units.size());
    for (const ProbItem& u : units) ids.push_back(u.item);
    std::sort(ids.begin(), ids.end());
    const auto repeated = std::adjacent_find(ids.begin(), ids.end());
    if (repeated != ids.end()) {
      return Status::InvalidArgument("item " + std::to_string(*repeated) +
                                     " appears more than once");
    }
  }
  return Status::OK();
}

/// Reads all of `path`: one fread for a regular file, whose size is
/// known; anything else (a pipe, a /proc file) grows the buffer as it
/// goes, and a directory fails the read.
Result<std::string> ReadWholeFile(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string buf;
  // One spare byte, so the first fread reaching end of file says so. Only
  // a regular file's size is trusted: a directory reports a bogus one.
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) buf.resize(static_cast<std::size_t>(size) + 1);
  }
  std::size_t filled = 0;
  for (;;) {
    if (filled == buf.size()) {
      buf.resize(std::max<std::size_t>(std::size_t{1} << 16, 2 * filled));
    }
    const std::size_t got =
        std::fread(buf.data() + filled, 1, buf.size() - filled, f.get());
    filled += got;
    if (got == 0 || filled < buf.size()) break;
  }
  if (std::ferror(f.get()) != 0) {
    return Status::IOError("read failed for '" + path + "'");
  }
  buf.resize(filled);
  return buf;
}

}  // namespace

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
  Status s = ParseUnits(line, std::numeric_limits<ItemId>::max(), units);
  if (!s.ok()) return s;
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
  Result<std::string> file = ReadWholeFile(path);
  if (!file.ok()) return file.status();
  const std::string& buf = *file;
  std::vector<Transaction> txns;
  std::vector<ProbItem> units;  // reused by every line
  std::size_t line_no = 0;
  const char* p = buf.data();
  const char* const end = p + buf.size();
  while (p != end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const line_end = nl == nullptr ? end : nl;
    const std::string_view line(p, static_cast<std::size_t>(line_end - p));
    p = nl == nullptr ? end : nl + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    Status s = ParseUnits(line, kMaxItemId, units);
    if (!s.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     s.message());
    }
    // An exact-size copy: the scratch vector keeps its capacity.
    txns.emplace_back(std::vector<ProbItem>(units.begin(), units.end()));
  }
  return UncertainDatabase(std::move(txns));
}

}  // namespace ufim
