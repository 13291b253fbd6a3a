// Unit tests for name resolution: GlobalFileId identity, the client-side
// resolver (paper §6.5), and the server-side per-domain mapping (§5.3).
#include <gtest/gtest.h>

#include "naming/domain_map.hpp"
#include "naming/file_id.hpp"
#include "naming/resolver.hpp"
#include "vfs/cluster.hpp"

namespace shadow::naming {
namespace {

GlobalFileId make_id(const std::string& domain, const std::string& host,
                     const std::string& path, u64 inode) {
  GlobalFileId id;
  id.domain = domain;
  id.host = host;
  id.path = path;
  id.inode = inode;
  return id;
}

TEST(GlobalFileIdTest, KeyIdentityIgnoresPath) {
  // Hard links: same inode, different canonical paths => same key.
  const auto a = make_id("d1", "h1", "/one", 42);
  const auto b = make_id("d1", "h1", "/two", 42);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_NE(a.display(), b.display());
}

TEST(GlobalFileIdTest, KeySeparatesDomainsHostsInodes) {
  const auto base = make_id("d1", "h1", "/f", 1);
  EXPECT_NE(base.key(), make_id("d2", "h1", "/f", 1).key());
  EXPECT_NE(base.key(), make_id("d1", "h2", "/f", 1).key());
  EXPECT_NE(base.key(), make_id("d1", "h1", "/f", 2).key());
}

TEST(GlobalFileIdTest, EncodeDecodeRoundTrip) {
  const auto id = make_id("nfs-128.10", "merlin", "/usr/comer/prog.f", 777);
  BufWriter w;
  id.encode(w);
  BufReader r(w.data());
  auto decoded = GlobalFileId::decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), id);
  EXPECT_TRUE(r.at_end());
}

TEST(GlobalFileIdTest, DecodeTruncatedFails) {
  const auto id = make_id("d", "h", "/p", 3);
  BufWriter w;
  id.encode(w);
  Bytes truncated(w.data().begin(), w.data().begin() + 3);
  BufReader r(truncated);
  EXPECT_FALSE(GlobalFileId::decode(r).ok());
}

class ResolverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& a = cluster_.add_host("wsA");
    auto& b = cluster_.add_host("wsB");
    auto& c = cluster_.add_host("fileserver");
    ASSERT_TRUE(c.mkdir_p("/export/proj").ok());
    ASSERT_TRUE(c.write_file("/export/proj/data.f", "fortran").ok());
    ASSERT_TRUE(cluster_.mount("wsA", "/proj", "fileserver",
                               "/export/proj").ok());
    ASSERT_TRUE(cluster_.mount("wsB", "/work", "fileserver",
                               "/export/proj").ok());
    ASSERT_TRUE(a.mkdir_p("/home").ok());
    ASSERT_TRUE(b.mkdir_p("/home").ok());
  }
  vfs::Cluster cluster_;
  NameResolver resolver_{"net-128.10", &cluster_};
};

TEST_F(ResolverTest, SameFileFromTwoHostsSameId) {
  auto from_a = resolver_.resolve("wsA", "/proj/data.f");
  auto from_b = resolver_.resolve("wsB", "/work/data.f");
  ASSERT_TRUE(from_a.ok());
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(from_a.value().key(), from_b.value().key());
  EXPECT_EQ(from_a.value().host, "fileserver");
  EXPECT_EQ(from_a.value().domain, "net-128.10");
}

TEST_F(ResolverTest, SymlinkAliasSameId) {
  auto a = cluster_.host("wsA").value();
  ASSERT_TRUE(a->symlink("/proj/data.f", "/home/shortcut.f").ok());
  auto direct = resolver_.resolve("wsA", "/proj/data.f");
  auto via_link = resolver_.resolve("wsA", "/home/shortcut.f");
  ASSERT_TRUE(via_link.ok());
  EXPECT_EQ(direct.value().key(), via_link.value().key());
}

TEST_F(ResolverTest, HardLinkAliasSameId) {
  auto c = cluster_.host("fileserver").value();
  ASSERT_TRUE(c->hard_link("/export/proj/data.f",
                           "/export/proj/alias.f").ok());
  auto one = resolver_.resolve("wsA", "/proj/data.f");
  auto two = resolver_.resolve("wsA", "/proj/alias.f");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(one.value().key(), two.value().key());
  EXPECT_NE(one.value().path, two.value().path);
}

TEST_F(ResolverTest, DistinctFilesDistinctIds) {
  auto c = cluster_.host("fileserver").value();
  ASSERT_TRUE(c->write_file("/export/proj/other.f", "x").ok());
  auto one = resolver_.resolve("wsA", "/proj/data.f");
  auto two = resolver_.resolve("wsA", "/proj/other.f");
  EXPECT_NE(one.value().key(), two.value().key());
}

TEST_F(ResolverTest, LocalFileResolvesToLocalHost) {
  auto a = cluster_.host("wsA").value();
  ASSERT_TRUE(a->write_file("/home/local.txt", "mine").ok());
  auto id = resolver_.resolve("wsA", "/home/local.txt");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value().host, "wsA");
}

TEST_F(ResolverTest, MissingFileFails) {
  EXPECT_FALSE(resolver_.resolve("wsA", "/proj/nope").ok());
}

// ---- server-side domain map ----

TEST(DomainDirectoryTest, InternIsStable) {
  DomainDirectory dir;
  const auto id = make_id("d", "h", "/f", 9);
  const ShadowId first = dir.intern(id);
  EXPECT_EQ(dir.intern(id), first);
  EXPECT_EQ(dir.lookup(id).value(), first);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(DomainDirectoryTest, HardLinksShareShadowId) {
  DomainDirectory dir;
  const ShadowId one = dir.intern(make_id("d", "h", "/a", 5));
  const ShadowId two = dir.intern(make_id("d", "h", "/b", 5));
  EXPECT_EQ(one, two);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(DomainDirectoryTest, LookupMissing) {
  DomainDirectory dir;
  EXPECT_FALSE(dir.lookup(make_id("d", "h", "/f", 1)).has_value());
}

TEST(DomainDirectoryTest, MappingFileFormat) {
  DomainDirectory dir;
  dir.intern(make_id("d", "h", "/first", 1));
  dir.intern(make_id("d", "h", "/second", 2));
  const std::string mapping = dir.to_mapping_file();
  EXPECT_NE(mapping.find("/first"), std::string::npos);
  EXPECT_NE(mapping.find("/second"), std::string::npos);
  EXPECT_EQ(std::count(mapping.begin(), mapping.end(), '\n'), 2);
}

TEST(DomainMapTest, DomainsAreIsolated) {
  DomainMap map;
  const auto in_d1 = make_id("d1", "h", "/f", 1);
  const auto in_d2 = make_id("d2", "h", "/f", 1);
  const std::string k1 = map.cache_key(in_d1);
  const std::string k2 = map.cache_key(in_d2);
  EXPECT_NE(k1, k2);
  EXPECT_EQ(map.domain_count(), 2u);
  EXPECT_EQ(map.cache_key(in_d1), k1);  // stable
}

TEST(DomainMapTest, CacheKeyShape) {
  DomainMap map;
  const std::string key = map.cache_key(make_id("dom", "h", "/f", 3));
  EXPECT_EQ(key.rfind("dom/", 0), 0u);
}

TEST(DomainMapTest, FindAndParseCacheKeyNeverIntern) {
  DomainMap map;
  const auto id = make_id("dom", "h", "/f", 3);
  EXPECT_FALSE(map.find_cache_key(id).has_value());
  EXPECT_EQ(map.domain_count(), 0u);  // the lookup created nothing
  const std::string key = map.cache_key(id);
  EXPECT_EQ(map.find_cache_key(id), key);
  const auto sid = DomainMap::parse_cache_key(key);
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(map.find("dom")->lookup(id), sid);
  for (const char* bad : {"dom", "dom/", "dom/1x", "dom/-1",
                          "dom/99999999999999999999"}) {
    EXPECT_FALSE(DomainMap::parse_cache_key(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace shadow::naming
