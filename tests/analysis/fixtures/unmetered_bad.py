"""Seeded violations for the unmetered-row-access rule.

A miniature storage stack (page class defining ``live_rows``, heap
class carrying a list of pages) plus metered entry points: one that
charges before touching rows (OK), one that charges through a price
function (OK), one that reaches the rows for free (BAD), and a metered
caller of the bad one (must NOT be flagged — blame belongs to the
innermost uncharged function).
"""


class Page:
    def __init__(self):
        self.rows = []
        self.tombstones = set()

    def live_rows(self):
        return [
            row for slot, row in enumerate(self.rows)
            if slot not in self.tombstones
        ]


class MiniHeap:
    def __init__(self):
        self._pages = [Page()]

    def page_count(self):
        return len(self._pages)

    def scan_rows(self):
        for page in self._pages:
            for row in page.live_rows():
                yield row


def count_rows_metered(heap: MiniHeap, meter, model):
    # OK: the scan is priced before the rows flow.
    meter.charge("scan", model.scan_page * heap.page_count())
    return sum(1 for _row in heap.scan_rows())


def page_scan_charge(model, heap: MiniHeap, meter=None):
    # A price function: charges, touches no rows.
    amount = model.scan_page * heap.page_count()
    if meter is not None:
        meter.charge("scan", amount)
    return amount


def count_rows_priced(heap: MiniHeap, meter, model):
    # OK: the scan is priced through the one function that states it.
    page_scan_charge(model, heap, meter)
    return sum(1 for _row in heap.scan_rows())


def count_rows_unmetered(heap: MiniHeap, meter):
    # BAD: sees a meter yet reaches heap rows without charging.
    total = 0
    for _row in heap.scan_rows():
        total += 1
    return total


def report_sizes(heap: MiniHeap, meter):
    # Calls the bad function above; only that inner function is
    # reported — fixing it discharges this path too.
    return {"rows": count_rows_unmetered(heap, meter)}
