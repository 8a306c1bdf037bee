// serve::Service rejection paths: every malformed input yields one
// structured "error" record — with the right stage — and the daemon
// keeps serving afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "photecc/serve/protocol.hpp"
#include "photecc/serve/service.hpp"

namespace {

namespace serve = photecc::serve;

std::string respond(serve::Service& service, const std::string& line) {
  std::ostringstream out;
  EXPECT_TRUE(service.handle_line(line, out));  // errors never stop the loop
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The daemon must still answer after an error: a stats request gets a
/// stats record, not silence or another error.
void expect_alive(serve::Service& service) {
  const auto lines = lines_of(respond(service, serve::request_line("stats")));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"stats\",", 0), 0u);
}

TEST(ServeErrors, TruncatedLineIsAParseError) {
  serve::Service service;
  const auto lines =
      lines_of(respond(service, R"({"kind":"sweep","spec":{)"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"stage\":\"parse\",", 0),
            0u);
  EXPECT_EQ(service.stats().errors, 1u);
  expect_alive(service);
}

TEST(ServeErrors, OversizedRequestIsRejectedUnparsed) {
  serve::Service service({.max_request_bytes = 64});
  const std::string huge =
      "{\"kind\":\"sweep\",\"spec\":{\"pad\":\"" + std::string(100, 'x') +
      "\"}}";
  const auto lines = lines_of(respond(service, huge));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"stage\":\"limit\",", 0),
            0u);
  EXPECT_NE(lines[0].find("max_request_bytes"), std::string::npos);
  expect_alive(service);
}

TEST(ServeErrors, OversizedLineIsCutOffWhileReading) {
  // The reader never buffers past the limit: a newline-free request one
  // byte over it gets one limit error, its tail is skipped up to the
  // newline, and the next request is served.
  serve::Service service({.max_request_bytes = 64});
  std::istringstream in(std::string(65, 'x') + "\n" +
                        serve::request_line("stats") + "\n");
  std::ostringstream out;
  EXPECT_FALSE(service.run(in, out));  // EOF, not a shutdown
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"stage\":\"limit\",", 0),
            0u);
  EXPECT_NE(lines[0].find("max_request_bytes (64)"), std::string::npos);
  EXPECT_EQ(lines[1].rfind("{\"kind\":\"stats\",", 0), 0u);
  EXPECT_EQ(service.stats().requests, 2u);
  EXPECT_EQ(service.stats().errors, 1u);
}

/// A client that sends `length` bytes of 'x' and never a newline.
class NewlineFreeClient : public std::streambuf {
 public:
  explicit NewlineFreeClient(std::size_t length) : left_(length) {}
  [[nodiscard]] std::size_t sent() const { return sent_; }

 protected:
  int_type underflow() override {
    if (left_ == 0) return traits_type::eof();
    const std::size_t n = std::min(left_, sizeof chunk_);
    std::fill(chunk_, chunk_ + n, 'x');
    setg(chunk_, chunk_, chunk_ + n);
    left_ -= n;
    sent_ += n;
    return traits_type::to_int_type('x');
  }

 private:
  char chunk_[256];
  std::size_t left_;
  std::size_t sent_ = 0;
};

/// Output buffer noting how much the client had sent at the first
/// flushed response record.
class FirstFlushProbe : public std::stringbuf {
 public:
  explicit FirstFlushProbe(const NewlineFreeClient& client)
      : client_(client) {}
  std::size_t sent_at_first_flush = 0;

 protected:
  int sync() override {
    if (sent_at_first_flush == 0) sent_at_first_flush = client_.sent();
    return std::stringbuf::sync();
  }

 private:
  const NewlineFreeClient& client_;
};

TEST(ServeErrors, NewlineFreeClientIsAnsweredAtTheLimit) {
  // 1 MiB without a newline against a 64-byte limit: the limit error
  // goes out while the client is still sending (one 256-byte chunk past
  // the limit at most), and nothing else is answered.
  serve::Service service({.max_request_bytes = 64});
  NewlineFreeClient client(1u << 20);
  FirstFlushProbe probe(client);
  std::istream in(&client);
  std::ostream out(&probe);
  EXPECT_FALSE(service.run(in, out));
  EXPECT_EQ(client.sent(), 1u << 20);
  EXPECT_GT(probe.sent_at_first_flush, 64u);
  EXPECT_LE(probe.sent_at_first_flush, 64u + 256u);
  const auto lines = lines_of(probe.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"stage\":\"limit\",", 0),
            0u);
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(ServeErrors, UnknownRequestKind) {
  serve::Service service;
  const auto lines =
      lines_of(respond(service, R"({"kind":"frobnicate"})"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"stage\":\"request\","
                           "\"field\":\"kind\",",
                           0),
            0u);
  EXPECT_NE(lines[0].find("frobnicate"), std::string::npos);
  expect_alive(service);
}

TEST(ServeErrors, EnvelopeViolations) {
  serve::Service service;
  // Missing spec on a sweep; stray spec on stats; unknown key; non-
  // object line; empty id — all stage "request".
  for (const std::string& line : {
           std::string(R"({"kind":"sweep"})"),
           std::string(R"({"kind":"stats","spec":{}})"),
           std::string(R"({"kind":"stats","surprise":1})"),
           std::string(R"(["kind","sweep"])"),
           std::string(R"({"kind":"stats","id":""})"),
       }) {
    const auto lines = lines_of(respond(service, line));
    ASSERT_EQ(lines.size(), 1u) << line;
    EXPECT_EQ(
        lines[0].rfind("{\"kind\":\"error\",\"stage\":\"request\",", 0), 0u)
        << line;
  }
  EXPECT_EQ(service.stats().errors, 5u);
  expect_alive(service);
}

TEST(ServeErrors, SchemaVersionMixIsASpecError) {
  // A v1 document carrying the v2-only environments axis: rejected at
  // the spec stage (the envelope itself is fine), id still echoed.
  serve::Service service;
  const std::string line =
      R"({"kind":"sweep","id":"mix","spec":{"photecc_spec":1,)"
      R"("axes":{"environments":[{"kind":"constant"}]}}})";
  const auto lines = lines_of(respond(service, line));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"id\":\"mix\","
                           "\"stage\":\"spec\",\"field\":\"photecc_spec\",",
                           0),
            0u);
  EXPECT_NE(lines[0].find("schema version"), std::string::npos);
  expect_alive(service);
}

TEST(ServeErrors, UnknownSpecFieldIsASpecErrorWithItsPath) {
  serve::Service service;
  const auto lines = lines_of(respond(
      service,
      R"({"kind":"sweep","spec":{"photecc_spec":2,"warp_factor":9}})"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("{\"kind\":\"error\",\"stage\":\"spec\","
                           "\"field\":\"warp_factor\",",
                           0),
            0u);
  expect_alive(service);
}

TEST(ServeErrors, ErrorsDoNotPoisonTheCacheOrCounters) {
  serve::Service service;
  (void)respond(service, R"({"kind":"sweep"})");
  (void)respond(service, "not json at all");
  EXPECT_EQ(service.stats().errors, 2u);
  EXPECT_EQ(service.stats().sweeps, 0u);
  EXPECT_EQ(service.stats().cache_misses, 0u);
  EXPECT_EQ(service.cache().entries(), 0u);
  EXPECT_EQ(service.stats().requests, 2u);
}

}  // namespace
