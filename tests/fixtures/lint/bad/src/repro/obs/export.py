"""Fixture: FPL007 true positives (resource hygiene)."""

import http.client
import json
import sqlite3


def slurp(path):
    return json.loads(open(path).read())


def count(path):
    conn = sqlite3.connect(path)
    return conn.execute("select count(*) from t").fetchone()[0]


def healthz(host, port):
    connection = http.client.HTTPConnection(host, port)
    connection.request("GET", "/healthz")
    return connection.getresponse().read()
