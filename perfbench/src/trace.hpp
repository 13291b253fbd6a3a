// Spans for the traced run, recorded from outside the program: the
// benchmark wraps the transports and the journal directory it hands to the
// client and server, and times the calls that cross those boundaries.
//
// Each thread records into its own Tracer (no locking on the hot path).
// A span has a name, start, end, the span that was open when it began
// (its parent) and an op id shared by every span of one edit
// ("e/<client>/<file>/<version>") or one job ("j/<client>/<token>").
// Self time is a span's duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/tcp_transport.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  std::string name;
  std::string op;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index into the same thread's spans, -1 = root
  std::uint64_t child_ns = 0;  // time covered by direct children

  double duration_us() const { return (end_ns - start_ns) / 1e3; }
  double self_us() const { return (end_ns - start_ns - child_ns) / 1e3; }
};

class Tracer {
 public:
  explicit Tracer(std::string thread_name) : thread_(std::move(thread_name)) {}

  int open(std::string name, std::string op);
  void close(int index);
  void set_op(int index, std::string op) { spans_[index].op = std::move(op); }

  const std::string& thread_name() const { return thread_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::string thread_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Owns every thread's Tracer for one traced round; spans stay in memory
/// until write_jsonl().
class TraceSink {
 public:
  /// Create a tracer and bind it to the calling thread.
  Tracer& bind_thread(const std::string& name);
  static void unbind_thread();
  /// The calling thread's tracer, or nullptr when it is not traced.
  static Tracer* current();

  /// Every thread's tracer, in creation order.
  std::vector<const Tracer*> tracers() const;
  /// Append every span as one JSON object per line.
  bool write_jsonl(const std::string& path, const std::string& round) const;

 private:
  mutable std::mutex mu_;
  std::deque<Tracer> tracers_;
};

/// RAII span on the calling thread's tracer (no-op when untraced). An
/// empty op inherits the enclosing span's op.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, std::string op = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_op(std::string op);

 private:
  Tracer* tracer_;
  int index_ = -1;
};

/// Protocol name of an encoded message's type ("Update", "JobOutput", ...).
std::string message_type(const shadow::Bytes& wire);

/// Op id of a message as seen by `client` ("" when it belongs to none).
std::string op_of(const std::string& client, const shadow::proto::Message& m);

/// Transport decorator: spans around send() and around the receiver
/// callback (the handler of each inbound message), counters per
/// direction, and — for the server side — the Update-in to UpdateAck-out
/// wait of every edit.
class TimedTransport final : public shadow::net::Transport {
 public:
  enum class Side { kClient, kServer };

  TimedTransport(std::unique_ptr<shadow::net::TcpTransport> inner, Side side,
                 std::string client);

  shadow::Status send(shadow::Bytes message) override;
  void set_receiver(ReceiveFn fn) override;
  std::size_t poll() override { return inner_->poll(); }
  shadow::u64 bytes_sent() const override { return inner_->bytes_sent(); }
  shadow::u64 messages_sent() const override {
    return inner_->messages_sent();
  }
  std::string peer_name() const override { return inner_->peer_name(); }
  std::size_t queued_bytes() const override { return inner_->queued_bytes(); }
  void set_queue_limit(std::size_t limit) override {
    inner_->set_queue_limit(limit);
  }
  std::size_t queue_limit() const override { return inner_->queue_limit(); }
  void request_close() override { inner_->request_close(); }

  shadow::net::TcpTransport& inner() { return *inner_; }

  /// Keep a copy of every message sent and received (for timing the
  /// proto codec on the run's own messages afterwards).
  void capture_messages(bool on) { capture_ = on; }
  const std::vector<shadow::Bytes>& captured() const { return captured_; }

  /// Server side: microseconds from each Update received to its
  /// UpdateAck sent.
  const std::vector<double>& ack_wait_us() const { return ack_wait_us_; }
  /// Server side: microseconds from each SubmitJob received to its
  /// JobOutput sent, by job op id.
  const std::map<std::string, double>& job_residence_us() const {
    return job_residence_us_;
  }
  /// Server side: durability-gated replies sent (UpdateAck, SubmitReply,
  /// JobOutput).
  std::uint64_t gated_replies() const { return gated_replies_; }

 private:
  std::unique_ptr<shadow::net::TcpTransport> inner_;
  Side side_;
  std::string client_;
  bool capture_ = false;
  std::vector<shadow::Bytes> captured_;
  std::map<std::string, std::uint64_t> update_in_ns_;  // op -> arrival
  std::map<std::string, std::uint64_t> submit_in_ns_;  // op -> arrival
  std::map<std::string, double> job_residence_us_;
  std::map<shadow::u64, shadow::u64> token_of_job_;    // job id -> token
  std::vector<double> ack_wait_us_;
  std::uint64_t gated_replies_ = 0;
};

/// Journal-directory decorator: spans and counters around every append,
/// sync and atomic write the durable store makes.
class TimedDir final : public shadow::persist::StorageDir {
 public:
  struct Counts {
    std::uint64_t appends = 0;
    std::uint64_t append_bytes = 0;
    std::uint64_t syncs = 0;
  };

  explicit TimedDir(std::unique_ptr<shadow::persist::StorageDir> inner)
      : inner_(std::move(inner)) {}

  shadow::Result<std::unique_ptr<shadow::persist::StorageFile>> open_append(
      const std::string& name) override;
  shadow::Result<shadow::Bytes> read(const std::string& name) override {
    return inner_->read(name);
  }
  bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  shadow::Status write_atomic(const std::string& name,
                              const shadow::Bytes& data) override;
  shadow::Status remove(const std::string& name) override {
    return inner_->remove(name);
  }
  std::vector<std::string> list() const override { return inner_->list(); }

  const Counts& counts() const { return counts_; }

 private:
  std::unique_ptr<shadow::persist::StorageDir> inner_;
  Counts counts_;
};

}  // namespace perfbench
