#include "service/protocol.hpp"

#include "dist/protocol.hpp"
#include "support/error.hpp"

namespace idxl::service {

const char* msg_name(uint8_t type) {
  switch (static_cast<Msg>(type)) {
    case Msg::kHello: return "hello";
    case Msg::kWelcome: return "welcome";
    case Msg::kSetup: return "setup";
    case Msg::kSetupAck: return "setup_ack";
    case Msg::kLaunch: return "launch";
    case Msg::kSingle: return "single";
    case Msg::kFill: return "fill";
    case Msg::kLaunchAck: return "launch_ack";
    case Msg::kFence: return "fence";
    case Msg::kFenceAck: return "fence_ack";
    case Msg::kRead: return "read";
    case Msg::kData: return "data";
    case Msg::kGoodbye: return "goodbye";
    case Msg::kByeAck: return "bye_ack";
    case Msg::kError: return "error";
    case Msg::kPing: return "ping";
  }
  return "unknown";
}

const char* err_name(Err e) {
  switch (e) {
    case Err::kOk: return "ok";
    case Err::kQuotaInFlight: return "quota_in_flight";
    case Err::kQuotaRegionBytes: return "quota_region_bytes";
    case Err::kQuotaSessions: return "quota_sessions";
    case Err::kDraining: return "draining";
    case Err::kEvicted: return "evicted";
    case Err::kBadMessage: return "bad_message";
    case Err::kUnknownTask: return "unknown_task";
    case Err::kForeignRegion: return "foreign_region";
    case Err::kSetupFailed: return "setup_failed";
    case Err::kBackend: return "backend";
  }
  return "unknown";
}

std::vector<std::byte> encode_client_hello(const ClientHello& h) {
  Serializer s;
  s.put_header();
  s.put_string(h.tenant);
  s.put_u32(h.weight);
  return s.take();
}

ClientHello decode_client_hello(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("service hello");
  ClientHello h;
  h.tenant = d.get_string();
  h.weight = d.get_u32();
  return h;
}

std::vector<std::byte> encode_welcome(const Welcome& w) {
  Serializer s;
  s.put_header();
  s.put_u64(w.session);
  s.put_string(w.tenant);
  s.put_u32(w.weight);
  s.put_u32(w.max_in_flight);
  s.put_u64(w.max_region_bytes);
  s.put_u32(static_cast<uint32_t>(w.tasks.size()));
  for (const std::string& t : w.tasks) s.put_string(t);
  return s.take();
}

Welcome decode_welcome(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("service welcome");
  Welcome w;
  w.session = d.get_u64();
  w.tenant = d.get_string();
  w.weight = d.get_u32();
  w.max_in_flight = d.get_u32();
  w.max_region_bytes = d.get_u64();
  const uint32_t n = d.get_u32();
  // Each name takes at least its 4-byte length: a larger count is corrupt,
  // and is refused before it can size an allocation.
  IDXL_REQUIRE(n <= d.remaining() / 4, "corrupt task count in service welcome");
  w.tasks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) w.tasks.push_back(d.get_string());
  return w;
}

// The forest-journal codec already exists for the distributed bootstrap;
// a setup batch is a dist::Setup with no task table and no storage.
std::vector<std::byte> encode_setup_ops(const std::vector<SetupOp>& ops) {
  dist::Setup s;
  s.journal = ops;
  return dist::encode_setup(s);
}

std::vector<SetupOp> decode_setup_ops(const std::vector<std::byte>& bytes) {
  return dist::decode_setup(bytes).journal;
}

std::vector<std::byte> encode_setup_ack(const SetupAck& a) {
  Serializer s;
  s.put_u64(a.tag);
  s.put_u8(static_cast<uint8_t>(a.code));
  s.put_string(a.error);
  return s.take();
}

SetupAck decode_setup_ack(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  SetupAck a;
  a.tag = d.get_u64();
  a.code = d.get_enum(Err::kBackend, "error code");
  a.error = d.get_string();
  return a;
}

std::vector<std::byte> encode_tagged(uint64_t tag,
                                     const std::vector<std::byte>& body) {
  Serializer s;
  s.put_u64(tag);
  s.put_blob(body);
  return s.take();
}

std::pair<uint64_t, std::vector<std::byte>> decode_tagged(
    const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  const uint64_t tag = d.get_u64();
  return {tag, d.get_blob()};
}

std::vector<std::byte> encode_fill(const Fill& f) {
  Serializer s;
  s.put_u64(f.tag);
  s.put_u32(f.region);
  s.put_u32(f.field);
  s.put_blob(f.pattern);
  return s.take();
}

Fill decode_fill(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  Fill f;
  f.tag = d.get_u64();
  f.region = d.get_u32();
  f.field = d.get_u32();
  f.pattern = d.get_blob();
  return f;
}

std::vector<std::byte> encode_launch_ack(const LaunchAck& a) {
  Serializer s;
  s.put_u64(a.tag);
  s.put_u8(static_cast<uint8_t>(a.code));
  s.put_u64(a.launch);
  s.put_string(a.error);
  return s.take();
}

LaunchAck decode_launch_ack(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  LaunchAck a;
  a.tag = d.get_u64();
  a.code = d.get_enum(Err::kBackend, "error code");
  a.launch = d.get_u64();
  a.error = d.get_string();
  return a;
}

std::vector<std::byte> encode_fence(uint64_t tag) {
  Serializer s;
  s.put_u64(tag);
  return s.take();
}

uint64_t decode_fence(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  return d.get_u64();
}

std::vector<std::byte> encode_fence_ack(const FenceAck& a) {
  Serializer s;
  s.put_u64(a.tag);
  s.put_blob(serialize_fault_report(a.report));
  return s.take();
}

FenceAck decode_fence_ack(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  FenceAck a;
  a.tag = d.get_u64();
  a.report = deserialize_fault_report(d.get_blob());
  return a;
}

std::vector<std::byte> encode_read(const ReadReq& r) {
  Serializer s;
  s.put_u64(r.tag);
  s.put_u32(r.region);
  s.put_u32(r.field);
  return s.take();
}

ReadReq decode_read(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  ReadReq r;
  r.tag = d.get_u64();
  r.region = d.get_u32();
  r.field = d.get_u32();
  return r;
}

std::vector<std::byte> encode_data(const Data& dd) {
  Serializer s;
  s.put_u64(dd.tag);
  s.put_u8(static_cast<uint8_t>(dd.code));
  s.put_blob(dd.bytes);
  s.put_string(dd.error);
  return s.take();
}

Data decode_data(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  Data dd;
  dd.tag = d.get_u64();
  dd.code = d.get_enum(Err::kBackend, "error code");
  dd.bytes = d.get_blob();
  dd.error = d.get_string();
  return dd;
}

std::vector<std::byte> encode_error(const ErrorMsg& e) {
  Serializer s;
  s.put_u8(static_cast<uint8_t>(e.code));
  s.put_string(e.message);
  return s.take();
}

ErrorMsg decode_error(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  ErrorMsg e;
  e.code = d.get_enum(Err::kBackend, "error code");
  e.message = d.get_string();
  return e;
}

}  // namespace idxl::service
