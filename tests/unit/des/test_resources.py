"""Unit tests for the DES kernel's Resource."""

import pytest

from repro.des import Environment, Resource


class TestResource:
    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self):
        env = Environment()
        res = Resource(env, capacity=2)
        granted = []

        def user(tag):
            req = res.request()
            yield req
            granted.append((tag, env.now))
            yield env.timeout(10)
            res.release(req)

        for tag in ("a", "b", "c"):
            env.process(user(tag))
        env.run()
        assert granted == [("a", 0), ("b", 0), ("c", 10)]

    def test_fifo_queueing(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(tag, hold):
            req = res.request()
            yield req
            order.append(tag)
            yield env.timeout(hold)
            res.release(req)

        env.process(user("first", 5))
        env.process(user("second", 5))
        env.process(user("third", 5))
        env.run()
        assert order == ["first", "second", "third"]

    def test_count_tracks_users(self):
        env = Environment()
        res = Resource(env, capacity=3)

        def user():
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        env.process(user())
        env.process(user())
        env.run(until=1)
        assert res.count == 2
        env.run()
        assert res.count == 0

    def test_release_ungrated_request_errors(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            req = res.request()
            yield req
            yield env.timeout(100)

        def bad():
            yield env.timeout(1)
            req = res.request()  # queued, not granted
            res.release(req)
            yield env.timeout(0)

        env.process(holder())
        env.process(bad())
        with pytest.raises(RuntimeError):
            env.run()

    def test_cancel_removes_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        served = []

        def holder():
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)

        def impatient():
            yield env.timeout(1)
            req = res.request()
            req.cancel()
            served.append("cancelled")
            yield env.timeout(0)

        def patient():
            yield env.timeout(2)
            req = res.request()
            yield req
            served.append(("patient", env.now))
            res.release(req)

        env.process(holder())
        env.process(impatient())
        env.process(patient())
        env.run()
        assert ("patient", 10) in served
