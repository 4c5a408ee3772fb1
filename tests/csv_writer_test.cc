#include "util/csv_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace pgm {
namespace {

TEST(CsvWriterTest, HeaderOnly) {
  CsvWriter csv({"a", "b"});
  EXPECT_EQ(csv.ToString(), "a,b\n");
  EXPECT_EQ(csv.num_columns(), 2u);
  EXPECT_EQ(csv.num_rows(), 0u);
}

TEST(CsvWriterTest, SimpleRows) {
  CsvWriter csv({"x", "y"});
  ASSERT_TRUE(csv.AddRow({"1", "2"}).ok());
  ASSERT_TRUE(csv.AddRow({"3", "4"}).ok());
  EXPECT_EQ(csv.ToString(), "x,y\n1,2\n3,4\n");
}

TEST(CsvWriterTest, RejectsWrongCellCount) {
  CsvWriter csv({"x", "y"});
  EXPECT_FALSE(csv.AddRow({"1"}).ok());
  EXPECT_FALSE(csv.AddRow({"1", "2", "3"}).ok());
  EXPECT_EQ(csv.num_rows(), 0u);
}

TEST(CsvWriterTest, EscapesCommasQuotesNewlines) {
  CsvWriter csv({"v"});
  ASSERT_TRUE(csv.AddRow({"a,b"}).ok());
  ASSERT_TRUE(csv.AddRow({"say \"hi\""}).ok());
  ASSERT_TRUE(csv.AddRow({"line1\nline2"}).ok());
  EXPECT_EQ(csv.ToString(),
            "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line1\nline2\"\n");
}

TEST(CsvWriterTest, EscapesHeaderToo) {
  CsvWriter csv({"a,b"});
  EXPECT_EQ(csv.ToString(), "\"a,b\"\n");
}

TEST(CsvWriterTest, RowBuilderMixedTypes) {
  CsvWriter csv({"s", "d", "i", "u"});
  ASSERT_TRUE(csv.Row()
                  .Add("text")
                  .Add(1.25)
                  .Add(static_cast<std::int64_t>(-3))
                  .Add(static_cast<std::uint64_t>(9))
                  .Done()
                  .ok());
  EXPECT_EQ(csv.ToString(), "s,d,i,u\ntext,1.25,-3,9\n");
}

TEST(CsvWriterTest, RowBuilderWrongArity) {
  CsvWriter csv({"a", "b"});
  EXPECT_FALSE(csv.Row().Add("only-one").Done().ok());
}

TEST(CsvWriterTest, WriteToFileRoundTrips) {
  CsvWriter csv({"k", "v"});
  ASSERT_TRUE(csv.AddRow({"alpha", "1"}).ok());
  const std::string path = testing::TempDir() + "/csv_writer_test.csv";
  ASSERT_TRUE(csv.WriteToFile(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[256] = {};
  std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buffer, n), "k,v\nalpha,1\n");
}

TEST(CsvWriterTest, WriteThatFailsWhenTheBufferFlushesIsAnIoError) {
  // /dev/full accepts the open and the buffered write, then fails the flush
  // at close with ENOSPC: only a writer that checks fclose reports it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CsvWriter csv({"k", "v"});
  ASSERT_TRUE(csv.AddRow({"alpha", "1"}).ok());
  const Status status = csv.WriteToFile("/dev/full");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(CsvWriterTest, WriteToBadPathFails) {
  CsvWriter csv({"a"});
  Status status = csv.WriteToFile("/nonexistent-dir-xyz/file.csv");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace pgm
