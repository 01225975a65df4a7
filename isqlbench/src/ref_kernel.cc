// The host-speed reference kernel: a fixed amount of allocation, sorting,
// hashing and formatting work — the same kinds of work an I-SQL statement
// does — in a process of its own, so it shares no code, heap or thread
// with the program under test. The benchmark times it between rounds,
// while no statement is in flight, and rescales its time metrics by it.
//
// Protocol on stdin/stdout: each byte read, a digit n from 1 to 9, runs n
// copies of the kernel at once on n threads, three times over, and answers
// one line with the median wall time in nanoseconds. Running as many
// copies as the workload has busy clients measures the host's speed at
// the workload's own parallelism: a host that takes cores away under
// parallel load slows the copies down together. EOF exits.

#include <algorithm>
#include <atomic>
#include <thread>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unistd.h>
#include <vector>

namespace {

uint64_t Kernel() {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::vector<int64_t>> rows;
  for (int i = 0; i < 10000; ++i) {
    rows.push_back({static_cast<int64_t>(next() % 5000),
                    static_cast<int64_t>(next() % 100),
                    static_cast<int64_t>(next() % 9)});
  }
  std::sort(rows.begin(), rows.end());
  std::unordered_map<int64_t, int64_t> sums;
  for (const auto& r : rows) sums[r[0]] += r[1] * r[2];
  std::string text;
  char buf[32];
  for (const auto& [k, v] : sums) {
    std::snprintf(buf, sizeof(buf), "%lld|%lld\n", static_cast<long long>(k),
                  static_cast<long long>(v));
    text += buf;
  }
  uint64_t check = text.size();
  for (const auto& r : rows) check = check * 31 + static_cast<uint64_t>(r[1]);
  return check;
}

}  // namespace

int main() {
  char c = 0;
  std::atomic<uint64_t> sink{0};
  while (read(0, &c, 1) == 1) {
    const int threads = c >= '1' && c <= '9' ? c - '0' : 1;
    int64_t ns[3];
    for (int64_t& t : ns) {
      auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> pool;
      for (int i = 0; i < threads; ++i) pool.emplace_back([&] { sink += Kernel(); });
      for (std::thread& th : pool) th.join();
      t = std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
    }
    std::sort(ns, ns + 3);
    std::string line = std::to_string(ns[1]) + " " + std::to_string(sink % 10) + "\n";
    if (write(1, line.data(), line.size()) != static_cast<ssize_t>(line.size())) {
      return 1;
    }
  }
  return 0;
}
