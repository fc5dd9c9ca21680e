#include "service/client.h"

#include <cstring>

namespace originscan::service {

bool ServiceClient::send(const ServiceWire& message) {
  if (link_.write_blocking(encode_service_message(message))) return true;
  error_ = std::string("send: ") + std::strerror(link_.os_error());
  return false;
}

bool ServiceClient::hello() {
  ServiceWire hello;
  hello.type = ServiceMsg::kHello;
  hello.version = kServiceProtocolVersion;
  if (!send(hello)) return false;
  const auto reply = next_message();
  if (!reply) return false;
  if (reply->type == ServiceMsg::kError) {
    error_ = "server refused: " + std::string(service_error_name(reply->error)) +
             " (" + reply->text + ")";
    return false;
  }
  if (reply->type != ServiceMsg::kHelloAck) {
    error_ = "expected HELLO_ACK, got " +
             std::string(service_msg_name(reply->type));
    return false;
  }
  universe_seed_ = reply->universe_seed;
  universe_size_ = reply->universe_size;
  return true;
}

bool ServiceClient::submit(std::uint64_t request_id, std::uint32_t tenant,
                           const SessionSpec& spec) {
  ServiceWire message;
  message.type = ServiceMsg::kSubmit;
  message.request_id = request_id;
  message.tenant = tenant;
  message.origin_code = spec.origin_code;
  message.protocol = spec.protocol;
  message.trial = static_cast<std::uint8_t>(spec.trial);
  message.probes = static_cast<std::uint8_t>(spec.probes);
  message.retries = static_cast<std::uint8_t>(spec.retries);
  return send(message);
}

std::optional<ServiceWire> ServiceClient::next_message() {
  const auto payload = link_.next_blocking();
  if (!payload) {
    if (link_.read_state() == net::FramedConn::ReadState::kPoisoned) {
      error_ = "framing error: " +
               std::string(net::frame_error_name(link_.frame_error()));
    } else if (link_.os_error() != 0) {
      error_ = std::string("recv: ") + std::strerror(link_.os_error());
    } else {
      error_ = "connection closed by server";
    }
    return std::nullopt;
  }
  auto message = decode_service_message(*payload);
  if (!message) error_ = "protocol violation: undecodable message";
  return message;
}

std::optional<ServiceWire> ServiceClient::wait_for(std::uint64_t request_id) {
  for (;;) {
    auto message = next_message();
    if (!message) return std::nullopt;
    if (message->request_id != request_id) continue;
    if (message->type == ServiceMsg::kResult ||
        message->type == ServiceMsg::kError) {
      return message;
    }
    // STATUS acks for the same request are progress, not answers.
  }
}

}  // namespace originscan::service
