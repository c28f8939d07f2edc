"""scripts/prepare_retail.py: the event-log mapping, TSV passthrough with
either line ending, and the per-user filters."""

import pytest

import prepare_retail

EVENTS = """timestamp,visitorid,event,itemid,transactionid
1,u1,view,i1,
2,u1,addtocart,i1,
3,u1,transaction,i1,t1
4,u2,removefromcart,i2,
5,u2,transaction,i3,t2
6,u3,view,i4,
"""

TSV = ["u1\ti1\tview", "u1\ti2\tbuy", "u1\ti1\tbuy", "u2\ti1\tcart", "u2\ti3\tbuy",
       "u3\ti2\tview"]


def convert(tmp_path, text, *flags, newline="\n"):
    source, out = tmp_path / "in", tmp_path / "out.tsv"
    source.write_bytes(text.replace("\n", newline).encode())
    prepare_retail.main([str(source), str(out), *flags])
    return out.read_text().splitlines()


def test_event_log_maps_to_view_cart_buy(tmp_path, capsys):
    # u3 never buys and is dropped; removefromcart is no relation
    assert convert(tmp_path, EVENTS) == ["u1\ti1\tview", "u1\ti1\tcart",
                                         "u1\ti1\tbuy", "u2\ti3\tbuy"]
    assert "2 users, 2 items, 4 interactions" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("min_buys,users", [("1", "u1 u2"), ("0", "u1 u2 u3"),
                                            ("2", "u1"), ("3", "")])
def test_tsv_passes_through_the_users_with_enough_buys(tmp_path, newline,
                                                       min_buys, users):
    # each user's lines come out view, cart, buy, and items sorted within
    got = convert(tmp_path, "\n".join(TSV) + "\n", "--min-buys", min_buys,
                  newline=newline)
    assert got == [line for line in ("u1\ti1\tview", "u1\ti1\tbuy", "u1\ti2\tbuy",
                                     "u2\ti1\tcart", "u2\ti3\tbuy", "u3\ti2\tview")
                   if line.split("\t")[0] in users.split()]
