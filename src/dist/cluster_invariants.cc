#include "dist/cluster_invariants.h"

#include "common/format.h"
#include "dist/cluster.h"

namespace imoltp::dist {

fault::InvariantReport CheckClusterInvariants(Cluster* cluster) {
  fault::InvariantReport rep;

  bool all_alive = true;
  int audited = 0;
  fault::TpccSums total;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    Node* node = cluster->node(n);
    if (!node->alive()) {
      all_alive = false;
      continue;
    }

    // Layer 1: the node's own local TPC-C consistency; the same audit
    // transactions add the node's share to the cross-node sums.
    core::TpccConfig cfg;
    cfg.warehouses = node->config().warehouses;
    cfg.orders_per_district = node->config().orders_per_district;
    cfg.num_partitions = node->config().workers;
    total.complete = true;
    fault::InvariantReport local = fault::CheckTpccInvariants(
        node->engine(), cfg, node->config().workers, &total);
    for (const std::string& v : local.violations) {
      rep.Violate(Sprintf("node %d: %s", n, v.c_str()));
    }
    for (int64_t c : local.checksums) rep.checksums.push_back(c);
    if (total.complete) ++audited;
  }

  if (all_alive && audited == cluster->num_nodes()) {
    // Layer 2: every Payment adds `amount` to one warehouse's W_YTD
    // (home node) and the same amount to one customer's ytd_paid
    // (possibly another node). Initial W_YTD is 0 and initial
    // ytd_paid is 10 per customer, so the deltas must match globally
    // even though no single node's books balance on their own.
    if (total.w_ytd != total.customer_paid) {
      rep.Violate(Sprintf(
          "cluster money conservation: sum W_YTD %lld != sum customer "
          "ytd_paid delta %lld",
          static_cast<long long>(total.w_ytd),
          static_cast<long long>(total.customer_paid)));
    }
    // Layer 3: every committed order line adds its quantity to exactly
    // one stock row's S_YTD — at the supplying node, which for remote
    // lines is not the node holding the order line.
    if (total.stock_ytd != total.order_line_qty) {
      rep.Violate(Sprintf(
          "cluster order-line conservation: sum stock S_YTD %lld != "
          "sum order-line quantities %lld",
          static_cast<long long>(total.stock_ytd),
          static_cast<long long>(total.order_line_qty)));
    }
  }

  rep.checksums.push_back(total.w_ytd);
  rep.checksums.push_back(total.customer_paid);
  rep.checksums.push_back(total.stock_ytd);
  rep.checksums.push_back(total.order_line_qty);
  rep.checksums.push_back(audited);
  rep.checksums.push_back(all_alive ? 1 : 0);
  return rep;
}

}  // namespace imoltp::dist
