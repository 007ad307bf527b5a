// Airline reservation: the paper's second canonical metric-space domain
// (seat counts). A capacity dashboard runs aggregate queries — including
// an AVERAGE, which uses the Sec. 5.3.2 aggregation-point mechanism with
// min/max tracking — while booking transactions keep selling seats.
//
// Build & run:  ./build/examples/airline_reservation

#include <cstdio>
#include <vector>

#include "api/database.h"
#include "common/random.h"

namespace {

constexpr esr::ObjectId kFlights = 60;

}  // namespace

int main() {
  esr::ServerOptions options;
  options.store.num_objects = kFlights;
  esr::Database db(options);
  // Each flight starts with 180 free seats; group flights by region.
  esr::GroupSchema& schema = db.schema();
  const esr::GroupId domestic = *schema.AddGroup("domestic", esr::kRootGroup);
  const esr::GroupId international =
      *schema.AddGroup("international", esr::kRootGroup);
  std::vector<esr::ObjectId> all_flights;
  for (esr::ObjectId id = 0; id < kFlights; ++id) {
    (void)db.LoadValue(id, 180);
    (void)schema.AssignObject(id, id < 40 ? domestic : international);
    all_flights.push_back(id);
  }

  esr::Session bookings = db.CreateSession(1);
  esr::Session dashboard = db.CreateSession(2);

  // A burst of bookings, some left in flight (uncommitted).
  esr::Rng rng(2026);
  std::vector<esr::TxnHandle> in_flight;
  int sold = 0;
  for (int i = 0; i < 30; ++i) {
    const esr::ObjectId flight =
        static_cast<esr::ObjectId>(rng.UniformInt(0, kFlights - 1));
    const esr::Value seats = rng.UniformInt(1, 4);
    if (i % 3 == 0) {
      // Leave every third booking pending.
      esr::TxnHandle txn =
          bookings.Begin(esr::TxnType::kUpdate, esr::BoundSpec());
      const esr::OpResult r = txn.Read(flight);
      if (r.ok() && txn.Write(flight, r.value - seats).ok()) {
        in_flight.push_back(std::move(txn));
        sold += static_cast<int>(seats);
        continue;
      }
      if (txn.valid()) (void)txn.Abort();
    } else {
      const esr::Status status = bookings.RunUpdate(
          [&](esr::TxnHandle& txn) -> esr::Status {
            const esr::OpResult r = txn.Read(flight);
            if (!r.ok()) return esr::Status::Aborted("read");
            if (!txn.Write(flight, r.value - seats).ok()) {
              return esr::Status::Aborted("write");
            }
            return esr::Status::OK();
          },
          esr::BoundSpec::TransactionOnly(/*TEL=*/50));
      if (status.ok()) sold += static_cast<int>(seats);
    }
  }
  std::printf("bookings processed; %d seats sold, %zu bookings still "
              "uncommitted\n\n",
              sold, in_flight.size());

  // Dashboard 1: total free seats, tolerating up to 40 seats of
  // inconsistency, with a tighter bound on international flights.
  esr::BoundSpec sum_bounds;
  sum_bounds.SetTransactionLimit(40);
  sum_bounds.SetLimit(international, 25);
  const auto total = dashboard.AggregateQuery(
      all_flights, esr::AggregateKind::kSum, sum_bounds, /*max_restarts=*/5);
  if (total.ok()) {
    std::printf("free seats (all flights)   : %.0f  (+/- %.0f)\n",
                total->outcome.result, total->imported);
  } else {
    std::printf("seat total rejected: %s\n",
                total.status().ToString().c_str());
  }

  // Dashboard 2: AVERAGE free seats per flight. The avg aggregate uses
  // the paper's min/max mechanism: its result inconsistency is derived
  // from the spread each read viewed and checked against the TIL at the
  // aggregation point.
  const auto average = dashboard.AggregateQuery(
      all_flights, esr::AggregateKind::kAvg,
      esr::BoundSpec::TransactionOnly(40), /*max_restarts=*/5);
  if (average.ok()) {
    std::printf("avg free seats per flight  : %.2f  "
                "(result inconsistency %.2f via min/max rule)\n",
                average->outcome.result,
                average->outcome.result_inconsistency);
  } else {
    std::printf("avg query rejected: %s\n",
                average.status().ToString().c_str());
  }

  // Dashboard 3: the fullest flight (min free seats).
  const auto fullest = dashboard.AggregateQuery(
      all_flights, esr::AggregateKind::kMin,
      esr::BoundSpec::TransactionOnly(40), /*max_restarts=*/5);
  if (fullest.ok()) {
    std::printf("fewest free seats          : %.0f  (bounds [%.0f, %.0f])\n",
                fullest->outcome.result, fullest->outcome.min_result,
                fullest->outcome.max_result);
  } else {
    std::printf("min query rejected: %s\n",
                fullest.status().ToString().c_str());
  }

  for (esr::TxnHandle& txn : in_flight) {
    if (!txn.Commit().ok()) return 1;
  }
  std::printf("\nall pending bookings committed; exact free seats = %lld\n",
              static_cast<long long>(db.server().TotalValue()));
  return 0;
}
