#include "util/string_util.h"

#include <arpa/inet.h>

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace cpd {

std::vector<std::string> Split(std::string_view text, char delimiter,
                               bool skip_empty) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t pos = text.find(delimiter, start);
    const size_t end = (pos == std::string_view::npos) ? text.size() : pos;
    if (end > start || !skip_empty) {
      parts.emplace_back(text.substr(start, end - start));
    }
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return parts;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) parts.emplace_back(text.substr(start, i - start));
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string result(text);
  for (char& c : result) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

StatusOr<Ipv4Endpoint> ParseIpv4Endpoint(std::string_view addr) {
  const auto bad = [addr](const char* what) {
    return Status::InvalidArgument(StrFormat(
        "%s, got '%.*s'", what, static_cast<int>(addr.size()), addr.data()));
  };
  const size_t colon = addr.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == addr.size()) {
    return bad("address must be HOST:PORT");
  }
  uint32_t port = 0;
  for (const char c : addr.substr(colon + 1)) {
    if (c < '0' || c > '9') return bad("port must be decimal");
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) return bad("port must be <= 65535");
  }
  Ipv4Endpoint endpoint;
  endpoint.port = static_cast<uint16_t>(port);
  const std::string host(addr.substr(0, colon));
  if (::inet_pton(AF_INET, host.c_str(), &endpoint.address) != 1) {
    return bad("host must be a numeric IPv4 address");
  }
  return endpoint;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

}  // namespace cpd
