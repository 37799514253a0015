#include "pscd/workload/serialize.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "pscd/util/csv.h"

namespace pscd {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'C', 'D', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kFormatVersion = 2;

/// Total payload cap per vector (1 GiB); a length field pointing past
/// this is malformed, not merely large.
constexpr std::uint64_t kMaxVecBytes = 1ull << 30;

/// On-disk record of a RequestEvent: 24 bytes, with the full 32-bit
/// proxy and the flag in its own byte, while the in-memory struct packs
/// both into one word (16 bytes). Reading a raw byte other than 0/1
/// into a bool is undefined behaviour, and a proxy above 31 bits would
/// be truncated, so the loader validates both. The explicit pad leaves
/// no implicit tail padding, which makes the written bytes fully
/// deterministic.
struct RequestEventDisk {
  SimTime time = 0.0;
  PageId page = kInvalidPage;
  ProxyId proxy = 0;
  std::uint8_t notificationDriven = 1;
  std::uint8_t pad[7] = {};
};
static_assert(sizeof(RequestEventDisk) == 24);

void writeBytes(std::ostream& out, const void* data, std::size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out) throw std::runtime_error("saveWorkload: write failed");
}

void readBytes(std::istream& in, void* data, std::size_t n,
               const char* field) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (in.gcount() != static_cast<std::streamsize>(n)) {
    throw std::runtime_error(
        std::string("loadWorkload: truncated input reading ") + field);
  }
}

template <typename T>
void writePod(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  writeBytes(out, &v, sizeof(T));
}

template <typename T>
T readPod(std::istream& in, const char* field) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  readBytes(in, &v, sizeof(T), field);
  return v;
}

template <typename T>
void writeVec(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  writePod<std::uint64_t>(out, v.size());
  if (!v.empty()) writeBytes(out, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> readVec(std::istream& in, const char* field) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = readPod<std::uint64_t>(in, field);
  if (n > kMaxVecBytes / sizeof(T)) {
    throw std::runtime_error(std::string("loadWorkload: bad length for ") +
                             field);
  }
  // Read in bounded chunks instead of allocating the full claimed size
  // up front: a corrupt length field then fails on the first short read
  // rather than committing gigabytes for data that is not there.
  constexpr std::size_t kChunkBytes = 1 << 20;
  const std::size_t chunkElems =
      kChunkBytes / sizeof(T) > 0 ? kChunkBytes / sizeof(T) : 1;
  std::vector<T> v;
  std::size_t got = 0;
  while (got < n) {
    const std::size_t take =
        std::min<std::size_t>(chunkElems, static_cast<std::size_t>(n) - got);
    v.resize(got + take);
    readBytes(in, v.data() + got, take * sizeof(T), field);
    got += take;
  }
  return v;
}

std::vector<RequestEventDisk> toDisk(const std::vector<RequestEvent>& v) {
  std::vector<RequestEventDisk> disk(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    disk[i].time = v[i].time;
    disk[i].page = v[i].page;
    disk[i].proxy = v[i].proxy;
    disk[i].notificationDriven = v[i].notificationDriven ? 1 : 0;
  }
  return disk;
}

std::vector<RequestEvent> fromDisk(const std::vector<RequestEventDisk>& v) {
  std::vector<RequestEvent> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].notificationDriven > 1) {
      throw std::runtime_error(
          "loadWorkload: invalid notificationDriven byte in requests");
    }
    if (v[i].proxy >= kMaxRequestProxies) {
      throw std::runtime_error(
          "loadWorkload: proxy id above 31 bits in requests");
    }
    out[i].time = v[i].time;
    out[i].page = v[i].page;
    out[i].proxy = v[i].proxy;
    out[i].notificationDriven = v[i].notificationDriven != 0;
  }
  return out;
}

}  // namespace

void saveWorkload(const Workload& w, std::ostream& out) {
  writeBytes(out, kMagic, sizeof(kMagic));
  writePod(out, kFormatVersion);
  static_assert(std::is_trivially_copyable_v<WorkloadParams>);
  writePod(out, w.params);
  writeVec(out, w.pages);
  writeVec(out, w.publishes);
  writeVec(out, toDisk(w.requests));
  writeVec(out, w.subOffsets);
  writeVec(out, w.subEntries);
  writeVec(out, w.churn);
  writeVec(out, w.uniqueBytesRequested);
}

Workload loadWorkload(std::istream& in) {
  char magic[sizeof(kMagic)];
  readBytes(in, magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("loadWorkload: bad magic");
  }
  if (readPod<std::uint32_t>(in, "format version") != kFormatVersion) {
    throw std::runtime_error("loadWorkload: unsupported format version");
  }
  Workload w;
  w.params = readPod<WorkloadParams>(in, "params");
  w.pages = readVec<PageInfo>(in, "pages");
  w.publishes = readVec<PublishEvent>(in, "publishes");
  w.requests = fromDisk(readVec<RequestEventDisk>(in, "requests"));
  w.subOffsets = readVec<std::uint32_t>(in, "subOffsets");
  w.subEntries = readVec<Notification>(in, "subEntries");
  w.churn = readVec<SubscriptionChurnEvent>(in, "churn");
  w.uniqueBytesRequested = readVec<Bytes>(in, "uniqueBytesRequested");
  w.validate();
  return w;
}

void saveWorkloadFile(const Workload& w, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("saveWorkloadFile: cannot open " + path);
  saveWorkload(w, out);
}

Workload loadWorkloadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("loadWorkloadFile: cannot open " + path);
  return loadWorkload(in);
}

void exportPublishesCsv(const Workload& w, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"time", "page", "version", "size"});
  for (const auto& e : w.publishes) {
    csv.field(e.time)
        .field(static_cast<std::uint64_t>(e.page))
        .field(static_cast<std::uint64_t>(e.version))
        .field(static_cast<std::uint64_t>(e.size));
    csv.endRow();
  }
}

void exportRequestsCsv(const Workload& w, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"time", "page", "proxy", "notification_driven"});
  for (const auto& r : w.requests) {
    csv.field(r.time)
        .field(static_cast<std::uint64_t>(r.page))
        .field(static_cast<std::uint64_t>(r.proxy))
        .field(static_cast<std::uint64_t>(r.notificationDriven ? 1 : 0));
    csv.endRow();
  }
}

void exportSubscriptionsCsv(const Workload& w, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"page", "proxy", "subscriptions"});
  for (PageId page = 0; page < w.numPages(); ++page) {
    for (const auto& n : w.subscriptions(page)) {
      csv.field(static_cast<std::uint64_t>(page))
          .field(static_cast<std::uint64_t>(n.proxy))
          .field(static_cast<std::uint64_t>(n.matchCount));
      csv.endRow();
    }
  }
}

}  // namespace pscd
