#include "io/dataset_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"

namespace ufim {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(DatasetIoTest, FormatAndParseRoundTrip) {
  Transaction t({{0, 0.8}, {5, 0.25}, {17, 1.0}});
  std::string line = FormatTransactionLine(t);
  Result<Transaction> parsed = ParseTransactionLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, t);
}

TEST_F(DatasetIoTest, ParseRejectsMalformedUnits) {
  EXPECT_FALSE(ParseTransactionLine("abc").ok());
  EXPECT_FALSE(ParseTransactionLine("1:").ok());
  EXPECT_FALSE(ParseTransactionLine(":0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("1:0.5x").ok());
  EXPECT_FALSE(ParseTransactionLine("x:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("1:1.5").ok());
  EXPECT_FALSE(ParseTransactionLine("1:-0.2").ok());
  EXPECT_FALSE(ParseTransactionLine("1:nan").ok());
  EXPECT_FALSE(ParseTransactionLine("1:-nan").ok());
  EXPECT_FALSE(ParseTransactionLine("1:0.5 1:0.9").ok());
}

TEST_F(DatasetIoTest, ParseRejectsSignedAndOutOfRangeItemIds) {
  // Ids must be plain digits within ItemId's range: a cast would turn
  // 2^32 into item 0, and strtoull alone reads "-1" as the largest
  // value and "+7" as 7.
  EXPECT_FALSE(ParseTransactionLine("4294967296:0.25").ok());
  EXPECT_FALSE(ParseTransactionLine("-1:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("+7:0.5").ok());
  EXPECT_FALSE(ParseTransactionLine("99999999999999999999999:0.5").ok());
  Result<Transaction> largest = ParseTransactionLine("4294967295:0.5");
  ASSERT_TRUE(largest.ok());
  EXPECT_EQ((*largest)[0].item, 4294967295u);
}

TEST_F(DatasetIoTest, ParseNamesTheRepeatedItem) {
  Result<Transaction> parsed = ParseTransactionLine("3:0.2 1:0.5 1:0.9");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("item 1"), std::string::npos)
      << parsed.status().message();
}

TEST_F(DatasetIoTest, ParseAcceptsEmptyLineAsEmptyTransaction) {
  Result<Transaction> parsed = ParseTransactionLine("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST_F(DatasetIoTest, WriteReadRoundTripPreservesDatabase) {
  UncertainDatabase db = MakePaperTable1();
  const std::string path = TempPath("table1.udb");
  ASSERT_TRUE(WriteDataset(db, path).ok());
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ((*loaded)[i], db[i]) << "transaction " << i;
  }
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadSkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.udb");
  {
    std::ofstream out(path);
    out << "# header comment\n\n0:0.5 1:0.25\n\n# trailing\n2:1\n";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)[0].ProbabilityOf(1), 0.25);
  EXPECT_DOUBLE_EQ((*loaded)[1].ProbabilityOf(2), 1.0);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadReportsLineNumberOnError) {
  const std::string path = TempPath("broken.udb");
  {
    std::ofstream out(path);
    out << "0:0.5\n1:bad\n";
  }
  Result<UncertainDatabase> loaded = ReadDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, ReadMissingFileIsIOError) {
  Result<UncertainDatabase> loaded = ReadDataset("/nonexistent/nowhere.udb");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(DatasetIoTest, WriteToUnwritablePathIsIOError) {
  EXPECT_EQ(WriteDataset(MakePaperTable1(), "/nonexistent/dir/file.udb").code(),
            StatusCode::kIOError);
}

TEST_F(DatasetIoTest, ProbabilityPrecisionSurvivesRoundTrip) {
  // %.17g must reproduce doubles bit-exactly.
  Transaction t({{1, 0.1 + 0.2}, {2, 1.0 / 3.0}});
  Result<Transaction> parsed = ParseTransactionLine(FormatTransactionLine(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)[0].prob, 0.1 + 0.2);
  EXPECT_EQ((*parsed)[1].prob, 1.0 / 3.0);
}

}  // namespace
}  // namespace ufim
