"""Fixture: FPL007 true negatives (owned handles)."""

import http.client
import sqlite3


class Exporter:
    def __init__(self, path):
        self._conn = sqlite3.connect(path)


def slurp(path):
    with open(path) as handle:
        return handle.read()


def count(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("select 1").fetchone()[0]
    finally:
        conn.close()


def reader(path):
    return open(path)


def healthz(host, port):
    connection = http.client.HTTPConnection(host, port)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().read()
    finally:
        connection.close()
