#include "src/util/telemetry/jsonl_sink.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lce {
namespace telemetry {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JsonlSinkTest, AppendBuffersUntilFlush) {
  const std::string path = ::testing::TempDir() + "jsonl_sink_basic.jsonl";
  std::remove(path.c_str());
  JsonlSink sink("test sink");
  sink.Append(R"({"n":1})", path);
  sink.Append(R"({"n":2})", path);
  EXPECT_EQ(sink.lines_appended(), 2u);
  ASSERT_TRUE(sink.Flush(path).ok());
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], R"({"n":1})");
  EXPECT_EQ(lines[1], R"({"n":2})");
  std::remove(path.c_str());
}

TEST(JsonlSinkTest, ConcurrentAppendAndFlushLoseNothing) {
  // Four writers hammer Append while a fifth thread flushes continuously;
  // every line must land exactly once and stay newline-terminated (no
  // interleaving inside a line).
  const std::string path = ::testing::TempDir() + "jsonl_sink_concurrent.jsonl";
  std::remove(path.c_str());
  JsonlSink sink("test sink");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  std::atomic<bool> writers_done{false};
  std::thread flusher([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(sink.Flush(path).ok());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.Append("{\"t\":" + std::to_string(t) +
                        ",\"i\":" + std::to_string(i) + "}",
                    path);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  writers_done.store(true, std::memory_order_release);
  flusher.join();
  ASSERT_TRUE(sink.Flush(path).ok());
  EXPECT_EQ(sink.lines_appended(),
            static_cast<uint64_t>(kThreads) * kPerThread);

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::set<std::string> unique(lines.begin(), lines.end());
  EXPECT_EQ(unique.size(), lines.size());  // no duplicates, no torn lines
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(unique.count("{\"t\":" + std::to_string(t) + ",\"i\":0}"), 1u);
    EXPECT_EQ(unique.count("{\"t\":" + std::to_string(t) + ",\"i\":" +
                           std::to_string(kPerThread - 1) + "}"),
              1u);
  }
  std::remove(path.c_str());
}

TEST(JsonlSinkTest, PathChangeMidStreamSwitchesFiles) {
  // The query log's path can be re-pointed between benches
  // (SetQueryLogPathForTesting); one sink must serve both files across the
  // change, with concurrent writers and a concurrent flusher on each side.
  const std::string path_a = ::testing::TempDir() + "jsonl_sink_path_a.jsonl";
  const std::string path_b = ::testing::TempDir() + "jsonl_sink_path_b.jsonl";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  JsonlSink sink("test sink");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4000;

  auto hammer = [&](int phase, const std::string& path) {
    std::atomic<bool> writers_done{false};
    std::thread flusher([&] {
      while (!writers_done.load(std::memory_order_acquire)) {
        EXPECT_TRUE(sink.Flush(path).ok());
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          sink.Append("{\"p\":" + std::to_string(phase) +
                          ",\"t\":" + std::to_string(t) +
                          ",\"i\":" + std::to_string(i) + "}",
                      path);
        }
      });
    }
    for (std::thread& w : writers) w.join();
    writers_done.store(true, std::memory_order_release);
    flusher.join();
    ASSERT_TRUE(sink.Flush(path).ok());  // drain this phase's remainder
  };
  hammer(1, path_a);
  hammer(2, path_b);  // mid-stream switch: same sink, new destination

  std::vector<std::string> a = ReadLines(path_a);
  std::vector<std::string> b = ReadLines(path_b);
  EXPECT_EQ(sink.lines_appended(),
            static_cast<uint64_t>(2 * kThreads) * kPerThread);
  ASSERT_EQ(a.size(), static_cast<size_t>(kThreads) * kPerThread);
  ASSERT_EQ(b.size(), static_cast<size_t>(kThreads) * kPerThread);
  // Nothing leaked across the switch and nothing tore: each file holds
  // exactly its own phase's distinct lines.
  std::set<std::string> unique_a(a.begin(), a.end());
  std::set<std::string> unique_b(b.begin(), b.end());
  EXPECT_EQ(unique_a.size(), a.size());
  EXPECT_EQ(unique_b.size(), b.size());
  for (const std::string& line : a) {
    EXPECT_EQ(line.rfind("{\"p\":1,", 0), 0u) << line;
  }
  for (const std::string& line : b) {
    EXPECT_EQ(line.rfind("{\"p\":2,", 0), 0u) << line;
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(JsonlSinkTest, ResetForTestingDropsBufferAndCounters) {
  const std::string path = ::testing::TempDir() + "jsonl_sink_reset.jsonl";
  std::remove(path.c_str());
  JsonlSink sink("test sink");
  sink.Append(R"({"dropped":true})", path);
  sink.ResetForTesting();
  EXPECT_EQ(sink.lines_appended(), 0u);
  ASSERT_TRUE(sink.Flush(path).ok());
  EXPECT_TRUE(ReadLines(path).empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace telemetry
}  // namespace lce
