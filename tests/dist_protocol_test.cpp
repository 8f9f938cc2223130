// Codec tests for the distributed-runtime messages (src/dist/protocol.hpp):
// round trips of the route list and the fence flags, and the typed
// rejection of hostile input. Every u32 element count a dist decoder reads
// is checked against the bytes left before anything is reserved, so a
// count of 0xFFFFFFFF or a payload cut short is a RuntimeError, never an
// allocation failure or a crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "hostile_frames.hpp"
#include "support/error.hpp"

namespace idxl::dist {
namespace {

TEST(DistProtocolTest, RouteListRoundTrips) {
  Route second = hostile::two_rect_route();
  second.src = 0;
  second.dest = 3;
  second.rects = {Rect(Point::p2(4, 4), Point::p2(5, 5))};
  second.launch = 43;
  const std::vector<Route> routes = {hostile::two_rect_route(), second};
  const std::vector<Route> back = decode_routes(encode_routes(routes));
  ASSERT_EQ(back.size(), routes.size());
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_EQ(back[i].src, routes[i].src);
    EXPECT_EQ(back[i].dest, routes[i].dest);
    EXPECT_EQ(back[i].producer, routes[i].producer);
    EXPECT_EQ(back[i].field, routes[i].field);
    EXPECT_EQ(back[i].rects, routes[i].rects);
    EXPECT_EQ(back[i].launch, routes[i].launch);
  }
}

TEST(DistProtocolTest, EmptyRouteAndRectListsAreRejected) {
  EXPECT_THROW(decode_routes(encode_routes({})), RuntimeError);
  Route empty = hostile::two_rect_route();
  empty.rects.clear();
  EXPECT_THROW(decode_routes(encode_routes({empty})), RuntimeError);
}

TEST(DistProtocolTest, FenceCarriesTheMetricsFlag) {
  for (const bool want : {false, true}) {
    const Fence f = decode_fence(encode_fence(Fence{7, want}));
    EXPECT_EQ(f.id, 7u);
    EXPECT_EQ(f.want_metrics, want);
  }
}

TEST(DistProtocolTest, HostileCountsAreTypedRejects) {
  for (const hostile::CountSite& site : hostile::dist_count_sites()) {
    SCOPED_TRACE(site.what);
    // The offset really names the count: the valid encoding holds the
    // expected value there and decodes.
    ASSERT_EQ(hostile::read_u32(site.bytes, site.offset), site.count);
    EXPECT_NO_THROW(site.decode(site.bytes));
    try {
      site.decode(hostile::with_u32(site.bytes, site.offset, 0xFFFFFFFFu));
      ADD_FAILURE() << "a count of 0xFFFFFFFF decoded";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("count"), std::string::npos) << e.what();
    }
  }
}

TEST(DistProtocolTest, TruncatedPayloadsAreTypedRejects) {
  for (const hostile::CountSite& site : hostile::dist_count_sites()) {
    SCOPED_TRACE(site.what);
    for (std::size_t n = 0; n < site.bytes.size(); ++n) {
      const std::vector<std::byte> prefix(site.bytes.begin(),
                                          site.bytes.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_THROW(site.decode(prefix), RuntimeError) << "prefix of " << n << " bytes";
    }
  }
}

}  // namespace
}  // namespace idxl::dist
